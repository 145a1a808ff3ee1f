"""Instance documents, reports, and diagram export.

An instance document is a JSON object holding either a poset pair with a
contraction map or a ring-backed hom expression, never both. Serialization
is canonical: stable key order, Hasse pairs only, and the bytes of
`json.dumps(value, indent=2)` plus a trailing newline, which `canonical_json`
writes without json's pure-Python indenting encoder. Reports share the same
discipline and never include wall-clock fields, so a report is byte-stable
for fixed inputs regardless of worker count.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field

from .poset import (
    AntisymmetryViolation,
    DuplicateLabel,
    Poset,
    UnknownLabel,
    covering_pairs,
    height,
    make_poset,
)
from .rings import (
    CharacteristicMismatch,
    NotIdempotent,
    Product,
    RingExpr,
    RingHom,
    Zn,
    make_hom,
    to_spectral_map,
)
from .specmap import (
    PROPERTY_NAMES,
    TOP,
    NotMonotone,
    SpectralMap,
    check_layer,
    make_spectral_map,
    properties_summary,
)
from .theorems import (
    THEOREM_STATEMENTS,
    Counterexample,
    TheoremId,
    Verdict,
)


class DocumentSyntaxError(ValueError):
    """Malformed document text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DocumentSemanticError(ValueError):
    """Well-formed text that does not describe a valid instance."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


_TOP_LITERAL = "TOP"

#: the largest modulus a ring expression may name; rings.prime_divisors
#: factors each one by trial division up to its square root
MAX_MODULUS = 10**9

#: the longest digit run a ring expression may hold; int() refuses runs
#: past 4,300 digits without saying where they are
MAX_DIGITS = 100


@dataclass(frozen=True)
class InstanceDocument:
    """A named spectral-map instance, possibly ring-backed.

    `ring` holds the canonical hom expression when the instance came from a
    ring document; `violation` is an optional passthrough block written by
    report builders so counterexample dumps stay parseable.
    """

    smap: SpectralMap
    name: str | None = None
    seed: int | None = None
    ring: str | None = None
    violation: dict | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Canonical JSON text

_encode_str = json.encoder.encode_basestring_ascii


def canonical_json(value) -> str:
    """The text of `json.dumps(value, indent=2)` followed by a newline.

    With an indent, json falls back to its pure-Python encoder; this writer
    gives the same bytes for str-keyed dicts, lists, tuples, str, int,
    bool and None, escaping strings with json's C-level ASCII encoder as
    ensure_ascii does. Any other value, and a dict with a non-str key, is
    written by json.dumps itself.
    """
    out: list[str] = []
    try:
        _write_json(value, "\n", out)
    except RecursionError:
        # a cyclic or very deep value: json.dumps raises what it always has
        return json.dumps(value, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    # `newline` is a line break plus the indent of the line `value` is on
    kind = type(value)
    if kind is str:
        out.append(_encode_str(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        start = len(out)
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                del out[start:]
                out.append(json.dumps(value, indent=2).replace("\n", newline))
                return
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(repr(value))
    else:
        # floats and other types; json writes no raw line break inside a
        # string, so each line break starts an indented line
        out.append(json.dumps(value, indent=2).replace("\n", newline))


# ---------------------------------------------------------------------------
# Ring expression grammar
#
#   ring := "Zn" "(" INT ")" | "Product" "(" ring ("," ring)* ")"
#   hom  := "hom" "(" "m" "=" INT "," "target" "=" ring "," "e" "=" elem ")"
#   elem := INT | "(" INT ("," INT)* ")"
#
# Nested products flatten and one-factor products collapse, so every parse
# lands on the canonical constructor forms.


def _text_location(text: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of offset `pos` in `text`."""
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, column


class _Tokens:
    def __init__(self, text: str, locate=None):
        self.text = text
        self.pos = 0
        # offset in `text` -> (line, column) that an error reports
        self._locate = locate

    def _location(self, pos: int) -> tuple[int, int]:
        if self._locate is not None:
            return self._locate(pos)
        return _text_location(self.text, pos)

    def error(self, message: str, pos: int | None = None):
        line, column = self._location(self.pos if pos is None else pos)
        raise DocumentSyntaxError(message, line, column)

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def start(self) -> int:
        """Offset of the next token."""
        self._skip_ws()
        return self.pos

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_symbol(self, symbol: str):
        self._skip_ws()
        if not self.text.startswith(symbol, self.pos):
            self.error(f"expected {symbol!r}")
        self.pos += len(symbol)

    def take_ident(self) -> str:
        start = self.start()
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start:self.pos]

    def take_int(self) -> int:
        start = self.start()
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        if self.pos - start > MAX_DIGITS:
            self.error(f"integer has more than {MAX_DIGITS} digits", start)
        return int(self.text[start:self.pos])

    def take_modulus(self) -> int:
        start = self.start()
        n = self.take_int()
        if n > MAX_MODULUS:
            raise DocumentSemanticError(
                f"ring modulus must be at most {MAX_MODULUS}, got {n}",
                *self._location(start),
            )
        return n

    def expect_end(self):
        self._skip_ws()
        if self.pos < len(self.text):
            self.error("unexpected trailing text")


def _parse_ring(tokens: _Tokens) -> RingExpr:
    start = tokens.pos
    name = tokens.take_ident()
    if name == "Zn":
        tokens.take_symbol("(")
        n = tokens.take_modulus()
        tokens.take_symbol(")")
        if n < 2:
            raise DocumentSemanticError(
                f"cyclic ring modulus must be at least 2, got {n}",
                *tokens._location(start),
            )
        return Zn(n)
    if name == "Product":
        tokens.take_symbol("(")
        factors = [_parse_ring(tokens)]
        while tokens.peek() == ",":
            tokens.take_symbol(",")
            factors.append(_parse_ring(tokens))
        tokens.take_symbol(")")
        flat: list[Zn] = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, Product) else [f])
        return flat[0] if len(flat) == 1 else Product(tuple(flat))
    tokens.error("expected Zn or Product", start)


def _parse_elem(tokens: _Tokens):
    if tokens.peek() == "(":
        tokens.take_symbol("(")
        parts = [tokens.take_int()]
        while tokens.peek() == ",":
            tokens.take_symbol(",")
            parts.append(tokens.take_int())
        tokens.take_symbol(")")
        return tuple(parts)
    return tokens.take_int()


def _parse_nested_ring(tokens: _Tokens) -> RingExpr:
    # the grammar recurses once per nested Product; where the interpreter's
    # stack runs out, the expression is reported at the point reached
    try:
        return _parse_ring(tokens)
    except RecursionError:
        tokens.error("ring expression nests too deeply")


def parse_ring_expr(text: str) -> RingExpr:
    """Parse `Zn(12)` or `Product(Zn(2),Zn(3))`."""
    tokens = _Tokens(text)
    ring = _parse_nested_ring(tokens)
    tokens.expect_end()
    return ring


def parse_hom_expr(text: str) -> RingHom:
    """Parse and validate `hom(m=6, target=Zn(2), e=1)`."""
    return _parse_hom(_Tokens(text))


def _parse_hom(tokens: _Tokens) -> RingHom:
    start = tokens.pos
    if tokens.take_ident() != "hom":
        tokens.error("expected hom(...)", start)
    tokens.take_symbol("(")
    if tokens.take_ident() != "m":
        tokens.error("expected m=...")
    tokens.take_symbol("=")
    m_pos = tokens.start()
    m = tokens.take_modulus()
    tokens.take_symbol(",")
    if tokens.take_ident() != "target":
        tokens.error("expected target=...")
    tokens.take_symbol("=")
    target = _parse_nested_ring(tokens)
    tokens.take_symbol(",")
    if tokens.take_ident() != "e":
        tokens.error("expected e=...")
    tokens.take_symbol("=")
    e_pos = tokens.start()
    e = _parse_elem(tokens)
    tokens.take_symbol(")")
    tokens.expect_end()
    try:
        return make_hom(m, target, e)
    except (NotIdempotent, CharacteristicMismatch, ValueError) as exc:
        # make_hom tests the source modulus first, then the element
        at = m_pos if m < 2 else e_pos
        raise DocumentSemanticError(str(exc), *tokens._location(at)) from exc


def ring_expr_text(ring: RingExpr) -> str:
    if isinstance(ring, Zn):
        return f"Zn({ring.n})"
    return "Product(" + ",".join(ring_expr_text(f) for f in ring.factors) + ")"


def elem_text(e) -> str:
    if isinstance(e, tuple):
        return "(" + ",".join(str(a) for a in e) + ")"
    return str(e)


def hom_text(h: RingHom) -> str:
    return f"hom(m={h.m}, target={ring_expr_text(h.target)}, e={elem_text(h.e)})"


# ---------------------------------------------------------------------------
# Instance documents


def _poset_block(p: Poset) -> dict:
    return {
        "labels": list(p.labels),
        "pairs": sorted(
            [p.labels[i], p.labels[j]] for i, j in covering_pairs(p)
        ),
    }


def _map_block(m: SpectralMap) -> dict:
    out = {}
    for q, v in enumerate(m.assignment):
        out[m.r_poset.labels[q]] = (
            _TOP_LITERAL if v is TOP else m.s_poset.labels[v]
        )
    return out


def instance_dict(doc: InstanceDocument) -> dict:
    """Canonical JSON object for a document, stable key order."""
    out: dict = {}
    if doc.name is not None:
        out["name"] = doc.name
    if doc.seed is not None:
        out["seed"] = doc.seed
    if doc.ring is not None:
        out["ring"] = doc.ring
    else:
        out["s"] = _poset_block(doc.smap.s_poset)
        out["r"] = _poset_block(doc.smap.r_poset)
        out["map"] = _map_block(doc.smap)
    if doc.violation is not None:
        out["violation"] = doc.violation
    return out


def serialize_instance(doc: InstanceDocument) -> str:
    return canonical_json(instance_dict(doc))


def _require_type(value, want, what: str):
    if not isinstance(value, want) or isinstance(value, bool):
        raise DocumentSemanticError(f"{what} must be a {want.__name__}")
    return value


def _parse_poset_block(block, what: str) -> Poset:
    if not isinstance(block, dict):
        raise DocumentSemanticError(f"{what} must be an object")
    unknown = set(block) - {"labels", "pairs"}
    if unknown:
        raise DocumentSemanticError(
            f"unknown keys in {what}: {', '.join(sorted(unknown))}"
        )
    labels = block.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DocumentSemanticError(f"{what}.labels must be a list of strings")
    if _TOP_LITERAL in labels:
        raise DocumentSemanticError(
            f"{what}.labels may not use the reserved label {_TOP_LITERAL!r}"
        )
    pairs = block.get("pairs", [])
    if not isinstance(pairs, list):
        raise DocumentSemanticError(f"{what}.pairs must be a list")
    clean = []
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise DocumentSemanticError(
                f"each entry of {what}.pairs must be a [low, high] label pair"
            )
        clean.append((pair[0], pair[1]))
    try:
        return make_poset(labels, clean)
    except (DuplicateLabel, UnknownLabel, AntisymmetryViolation) as exc:
        raise DocumentSemanticError(f"{what}: {exc}") from exc


#: a JSON string or one bracket
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


#: a JSON string, or a JSON number with its integer digits in group 1 and,
#: when it is not an integer, its fraction or exponent in group 2
_STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _overlong_integer(text: str, limit: int) -> int | None:
    """Offset of the digits of the first JSON integer in `text` longer than
    `limit` digits, or None.

    Digits inside strings are skipped, and a number with a fraction or an
    exponent is read as a float, which has no digit limit.
    """
    for match in _STRING_OR_NUMBER.finditer(text):
        digits, rest = match.group(1, 2)
        if digits is not None and not rest and len(digits) > limit:
            return match.start(1)
    return None


def _deepest_bracket(text: str) -> int:
    """Offset of the first opening bracket at the deepest nesting of JSON text."""
    depth = deepest = at = 0
    for match in _STRING_OR_BRACKET.finditer(text):
        token = match.group()
        if token == "[" or token == "{":
            depth += 1
            if depth > deepest:
                deepest, at = depth, match.start()
        elif token == "]" or token == "}":
            depth -= 1
    return at


#: the colon after a member name and the opening quote of a string value
_COLON_QUOTE = re.compile(r'\s*:\s*"')


def _ring_locator(text: str):
    """Offset in the top-level "ring" string of JSON `text` -> (line, column) in `text`.

    The offset's own character is reported when the raw string holds no
    escape, so that it is the decoded string's character; otherwise the
    string's opening quote. The last "ring" member counts, as in json.loads.
    """

    def locate(pos: int) -> tuple[int, int]:
        value = None
        depth = 0
        matches = _STRING_OR_BRACKET.finditer(text)
        for match in matches:
            token = match.group()
            if token == "[" or token == "{":
                depth += 1
            elif token == "]" or token == "}":
                depth -= 1
            elif (
                depth == 1
                and _COLON_QUOTE.match(text, match.end())
                and json.loads(token) == "ring"
            ):
                value = next(matches)
        start = value.start()
        if "\\" in value.group():
            return _text_location(text, start)
        return _text_location(text, start + 1 + pos)

    return locate


def parse_instance(text: str) -> InstanceDocument:
    """Parse and validate an instance document.

    Syntax problems raise DocumentSyntaxError with a line and column;
    well-formed JSON that fails validation raises DocumentSemanticError.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        line, column = _text_location(text, _deepest_bracket(text))
        raise DocumentSyntaxError("document nests too deeply", line, column) from None
    except ValueError:
        # int() refuses the digits of an overlong integer without a position
        limit = sys.get_int_max_str_digits()
        at = _overlong_integer(text, limit)
        if at is None:
            raise
        line, column = _text_location(text, at)
        raise DocumentSyntaxError(
            f"integer has more than {limit} digits", line, column
        ) from None
    if not isinstance(data, dict):
        raise DocumentSemanticError("instance document must be a JSON object")
    unknown = set(data) - {"name", "seed", "s", "r", "map", "ring", "violation"}
    if unknown:
        raise DocumentSemanticError(
            "unknown keys: " + ", ".join(sorted(unknown))
        )

    name = data.get("name")
    if name is not None:
        _require_type(name, str, "name")
    seed = data.get("seed")
    if seed is not None:
        _require_type(seed, int, "seed")
    violation = data.get("violation")
    if violation is not None and not isinstance(violation, dict):
        raise DocumentSemanticError("violation must be an object")

    has_ring = "ring" in data
    has_posets = any(k in data for k in ("s", "r", "map"))
    if has_ring and has_posets:
        raise DocumentSemanticError(
            "document must use either a ring block or a poset pair, not both"
        )
    if has_ring:
        ring_text = _require_type(data["ring"], str, "ring")
        # errors in the ring expression are placed in the document
        hom = _parse_hom(_Tokens(ring_text, _ring_locator(text)))
        return InstanceDocument(
            smap=to_spectral_map(hom),
            name=name,
            seed=seed,
            ring=hom_text(hom),
            violation=violation,
        )

    missing = [k for k in ("s", "r", "map") if k not in data]
    if missing:
        raise DocumentSemanticError(
            "poset documents need s, r and map blocks; missing: "
            + ", ".join(missing)
        )
    s = _parse_poset_block(data["s"], "s")
    r = _parse_poset_block(data["r"], "r")
    map_block = data["map"]
    if not isinstance(map_block, dict):
        raise DocumentSemanticError("map must be an object")
    if set(map_block) != set(r.labels):
        missing_keys = sorted(set(r.labels) - set(map_block))
        extra_keys = sorted(set(map_block) - set(r.labels))
        parts = []
        if missing_keys:
            parts.append("unmapped r elements: " + ", ".join(missing_keys))
        if extra_keys:
            parts.append("unknown r elements: " + ", ".join(extra_keys))
        raise DocumentSemanticError("map block mismatch; " + "; ".join(parts))
    assignment: list = [None] * r.n
    for q_label, value in map_block.items():
        if not isinstance(value, str):
            raise DocumentSemanticError(
                f"map value for {q_label!r} must be a label or {_TOP_LITERAL!r}"
            )
        if value == _TOP_LITERAL:
            assignment[r.index(q_label)] = TOP
        else:
            try:
                assignment[r.index(q_label)] = s.index(value)
            except UnknownLabel as exc:
                raise DocumentSemanticError(f"map: {exc}") from exc
    try:
        smap = make_spectral_map(s, r, assignment)
    except NotMonotone as exc:
        raise DocumentSemanticError(f"map: {exc}") from exc
    return InstanceDocument(smap=smap, name=name, seed=seed, violation=violation)


def document_for_map(m: SpectralMap, name: str | None = None) -> InstanceDocument:
    return InstanceDocument(smap=m, name=name)


def document_for_hom(h: RingHom, name: str | None = None) -> InstanceDocument:
    return InstanceDocument(
        smap=to_spectral_map(h), name=name, ring=hom_text(h)
    )


# ---------------------------------------------------------------------------
# Reports


def _counterexample_dict(cx: Counterexample) -> dict:
    doc = InstanceDocument(
        smap=cx.smap,
        name="counterexample",
        violation={
            "theorem": cx.theorem.name if isinstance(cx.theorem, TheoremId) else cx.theorem,
            "waived": cx.waived,
            **cx.detail,
        },
    )
    return instance_dict(doc)


def _verdict_dict(v: Verdict) -> dict:
    return {
        "theorem": v.theorem.name if isinstance(v.theorem, TheoremId) else v.theorem,
        "statement": THEOREM_STATEMENTS.get(v.theorem, ""),
        "holds": v.holds,
        "instances_checked": v.instances_checked,
        "note": v.note,
        "counterexample": _counterexample_dict(v.counterexample) if v.counterexample else None,
    }


def build_check_report(doc: InstanceDocument, max_layer: int | None = None) -> dict:
    """Properties and layer results for one instance, layer-1 to layer-max_layer.

    `max_layer` defaults to the height of s; 0 reports no layer.
    """
    m = doc.smap
    if max_layer is None:
        max_layer = height(m.s_poset)
    elif max_layer < 0:
        raise ValueError(f"max layer must be at least 0, got {max_layer}")
    layers = {str(n): check_layer(m, n) for n in range(1, max_layer + 1)}
    return {
        "command": "check",
        "instance": instance_dict(doc),
        "properties": properties_summary(m),
        "layers": layers,
    }


def build_verify_report(
    doc: InstanceDocument | None,
    verdicts: list[Verdict],
    bounds: dict | None = None,
) -> dict:
    out: dict = {"command": "verify"}
    if doc is not None:
        out["mode"] = "instance"
        out["instance"] = instance_dict(doc)
    else:
        out["mode"] = "exhaustive"
        out["bounds"] = bounds
    out["theorems"] = [_verdict_dict(v) for v in verdicts]
    out["all_hold"] = all(v.holds for v in verdicts)
    return out


def build_search_report(spec, witness: SpectralMap | None) -> dict:
    witness_dict = None
    if witness is not None:
        violation = {"goal": spec.goal, "required": sorted(spec.required)}
        witness_dict = instance_dict(InstanceDocument(witness, "witness", violation=violation))
    return {
        "command": "search",
        "spec": {
            "required": sorted(spec.required),
            "goal": spec.goal,
            "max_s": spec.max_s,
            "max_r": spec.max_r,
            "d_size": spec.d_size,
            "seed": spec.seed,
        },
        "found": witness is not None,
        "witness": witness_dict,
    }


def build_spec_report(ring: RingExpr, poset: Poset) -> dict:
    return {
        "command": "spec",
        "ring": ring_expr_text(ring),
        "labels": list(poset.labels),
        "pairs": sorted(
            [poset.labels[i], poset.labels[j]] for i, j in covering_pairs(poset)
        ),
    }


def serialize_report(report: dict) -> str:
    return canonical_json(report)


# ---------------------------------------------------------------------------
# Text rendering


def _bool_word(b: bool) -> str:
    return "true" if b else "false"


def render_check_text(report: dict) -> str:
    props = report["properties"]
    lines = [f"{name}: {_bool_word(props[name])}" for name in (*PROPERTY_NAMES, "unitary")]
    lines += [f"layer-{n}: {_bool_word(value)}" for n, value in report["layers"].items()]
    return "\n".join(lines) + "\n"


def render_verify_text(report: dict) -> str:
    lines = []
    for entry in report["theorems"]:
        status = "holds" if entry["holds"] else "FAILED"
        line = f"{entry['theorem']}: {status} ({entry['instances_checked']} instances)"
        if entry["note"]:
            line += f" [{entry['note']}]"
        lines.append(line)
        if entry["counterexample"] is not None:
            lines.append("  counterexample: " + entry["counterexample"]["violation"]["clause"])
    lines.append("all hold" if report["all_hold"] else "violations found")
    return "\n".join(lines) + "\n"


def render_search_text(report: dict) -> str:
    if not report["found"]:
        return "no witness within bounds\n"
    witness = report["witness"]
    lines = ["witness found:"]
    for tag in ("s", "r"):
        pairs = "; ".join(f"{a} < {b}" for a, b in witness[tag]["pairs"])
        lines.append(f"  {tag} labels: " + ", ".join(witness[tag]["labels"]))
        lines.append(f"  {tag} pairs: " + (pairs or "(antichain)"))
    lines.append("  map: " + "; ".join(f"{q} -> {p}" for q, p in witness["map"].items()))
    return "\n".join(lines) + "\n"


def render_spec_text(report: dict) -> str:
    lines = [f"spec {report['ring']}:"]
    lines += [f"  {label}" for label in report["labels"]]
    lines += [f"  {a} < {b}" for a, b in report["pairs"]]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(doc: InstanceDocument) -> str:
    """Hasse diagram of both posets plus dashed contraction edges.

    Order edges point upward (rankdir BT); TOP appears as a box node only
    when some element contracts to it.
    """
    m = doc.smap
    s, r = m.s_poset, m.r_poset
    lines = ["digraph instance {", "  rankdir=BT;"]
    for tag, p in (("s", s), ("r", r)):
        lines.append(f"  subgraph cluster_{tag} {{")
        lines.append(f"    label={_dot_quote(tag)};")
        for label in p.labels:
            node = _dot_quote(f"{tag}:{label}")
            lines.append(f"    {node} [label={_dot_quote(label)}];")
        for i, j in sorted(covering_pairs(p)):
            low = _dot_quote(f"{tag}:{p.labels[i]}")
            high = _dot_quote(f"{tag}:{p.labels[j]}")
            lines.append(f"    {low} -> {high};")
        lines.append("  }")
    if any(v is TOP for v in m.assignment):
        lines.append(f"  {_dot_quote(_TOP_LITERAL)} [shape=box];")
    for q, v in enumerate(m.assignment):
        src = _dot_quote(f"r:{r.labels[q]}")
        dst = _dot_quote(_TOP_LITERAL if v is TOP else f"s:{s.labels[v]}")
        lines.append(f"  {src} -> {dst} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
