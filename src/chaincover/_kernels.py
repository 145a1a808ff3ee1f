"""Bitmask kernels for property checks and exhaustive sweeps.

Everything in this module works on a flat encoding over plain ints: a poset
with n elements is a sequence of up-set masks (bit j of up[i] means
i <= j, self bit included), a contraction map is a sequence of values with
the sentinel value ns standing for the adjoined top element, and chains are
membership masks. property_bits and monotone_maps also take numpy int64
arrays.

Two primitives carry every sweep and search. `monotone_maps` lists the
monotone maps of a poset pair as a list of value tuples, in the
lexicographic order whose list indices sweeps and searches report and
replays look up. `_maximal_dchains` lists the maximal chains inside a set
of elements; on the elements that contract into a chain D these are the
maximal D-chains the theorems speak about, and on all elements the maximal
chains of the poset.

The theorems read facts computed once. A `PosetFacts` record holds what
depends on one poset: its masks, its chains with their least and greatest
members (`ends`), the consecutive member pairs of each chain read
(`links`), its maximal chains inside each set of elements (`dchains`), and
per map value tuple `cmap` of a map out of it two tables: `allowed`, which
sends each chain D to the elements of r contracting into D, so that the
maximal D-chains are `r.dchains[allowed[D]]`, and `images`, the image
mask of every subset of r. Both depend only on s and `cmap`, so every
theorem, goal and r sharing the values read one entry. Sweeps and searches
take their records from the process-wide `_RECORDS`, keyed by strict up
rows, and so does each `Poset` (`Poset.facts`): every poset with the same
order reads one record. Per map there is also its property-bits word from
`property_bits` (LO, INC, GU, GD, SGB, GB and unitarity as PROP_* flags),
kept in s's `words` table by (r's record, `cmap`) for the object level.

Each theorem is one entry of `THEOREMS`: the names of its hypotheses, their
flags as one mask and one conclusion over (s, r, cmap, bits, allowed) that
returns a clause code. The conclusions are mask tests over those facts. A
maximal D-chain C covers D when `images[C]` is D. Every contraction of C
lies in the chain D, so each member of D lies above (below) one iff C meets
the lifts of min D (max D), `allowed[end]` (P_MINI_GD, P_MINI_GU); and D
is bracketed across the cut of C between consecutive members x < y iff no
member of D lies strictly between the contractions of x and y
(P_MINI_SGB). `eval_theorem` evaluates one map from its entry for
`theorems.verify`, which checks every object-level instance and replays a
sweep's first violation; scans call the conclusions (`_first_violation`).

Sweeps and searches walk the same chunks, lists of pairs of isomorphism
classes, each a product of s positions and r positions
(theorems.deal_class_pairs). Sweeps call sweep_pair once per labeled pair
of each product with both posets' records; searches call search_pair once
per product, on the records of its least labeled member. Both share
one map loop, `_first_violation`, which first filters the maps by their
words, a map passing when its word holds every flag of a `need` mask and
none of a `forbid` mask, and then calls a predicate on those that pass: the
theorem's conclusion, with its hypotheses as `need` unless waived
(sweep_pair), or the search goal `_goal_met`, with the search's flags
(search_pair). The next map that passes is found in C, by `find` on the
words translated through a 256-byte table per filter (`_FILTERS`), so a
map the filter rejects costs no Python call. search_pair runs that loop
over a pair's orbit representatives, and sweep_pair over the
representatives of each class that its sweep chunk's memo, keyed by the
records' class ids (`PosetFacts.cls`), has not settled yet. sweep_pair
without a memo and search_pair on plain up masks run it over every map
(`_full_scan`).

Process-wide tables are filled on lookup and never shrink. `_RECORDS`
holds a record for each labeled poset within POSET_ENUM_BOUND (at most
4,474) that a sweep or search looks up, plus one for each distinct order
of the posets a process builds. Every statement is invariant under
relabeling s and r: `_CANONICAL` holds each labeled poset's canonical form
and automorphism group, filled one isomorphism class at a time,
`_CLASS_IDS` numbers the canonical forms, and `_ORBITS` lists, per labeled pair, one map per orbit
of Aut(s) x Aut(r) with its word (`_map_orbits`); orbit scans check these
instead of every map. Pool children hand the `_ORBITS` entries they build
back to the caller, so later pools fork with them. A record's `allowed`
and `images` tables hold an entry per value tuple that a scan of its poset
has checked; orbit scans check only representatives that pass their
filter, so at (4, 5) the sixteen theorem sweeps stay within a peak of
about 54 MB.
"""

from __future__ import annotations

from array import array
from functools import cached_property, partial
from itertools import permutations

# The kernels are plain Python; perfbench records this in its `env` line.
NUMBA_ENABLED = False


# Property bits reported by property_bits().
PROP_LO = 1
PROP_INC = 2
PROP_GU = 4
PROP_GD = 8
PROP_SGB = 16
PROP_GB = 32
PROP_UNITARY = 64

#: the property_bits flag of each hypothesis name
HYPOTHESIS_BITS = {
    "unitary": PROP_UNITARY,
    "LO": PROP_LO,
    "INC": PROP_INC,
    "GU": PROP_GU,
    "GD": PROP_GD,
    "SGB": PROP_SGB,
}

# Goal codes for search_pair.
GOAL_LO_FAILS = 0
GOAL_MAXDCHAIN_NOT_COVER = 1
GOAL_MAXDCHAIN_NOT_PERFECT = 2


def _down_masks(n, up):
    # bit i of down[j] for every bit j of up[i]
    down = [0] * n
    for i in range(n):
        bit = 1 << i
        m = up[i]
        while m:
            low = m & -m
            down[low.bit_length() - 1] |= bit
            m ^= low
    return down


def _comp_masks(n, up, down):
    return [up[i] | down[i] for i in range(n)]


def _is_chain(comp, mask):
    # every member is comparable with every other member
    m = mask
    while m:
        low = m & -m
        if mask & ~comp[low.bit_length() - 1]:
            return False
        m ^= low
    return True


def _chain_masks(n, comp):
    # ascending, so the empty chain comes first
    return [mask for mask in range(1 << n) if _is_chain(comp, mask)]


def _maximal_chain_masks(n, up, down):
    # maximal chains of the whole poset, ascending; none when it is empty
    if n == 0:
        return []
    return _maximal_dchains(up, down, (1 << n) - 1)[::-1]


def _is_maximal_sub(comp, allowed, sub):
    # no one-element extension inside `allowed` stays a chain
    rest = allowed & ~sub
    x = 0
    while rest:
        if rest & 1:
            if (sub & ~comp[x]) == 0:
                return False
        rest >>= 1
        x += 1
    return True


def _maximal_dchains(up, down, allowed):
    """Maximal chains inside the elements of `allowed`, in descending order.

    A maximal chain starts at a minimal element x of its universe and goes
    on as a maximal chain of the universe strictly above x, so the descent
    visits each maximal chain once. When `allowed` is empty the empty chain
    is the only one, and so maximal. Callers that stop at the first chain
    with some defect rely on the descending order for their clause codes.
    """
    out = []
    prefixes = [0]
    universes = [allowed]
    while prefixes:
        prefix = prefixes.pop()
        universe = universes.pop()
        if universe == 0:
            out.append(prefix)
            continue
        m = universe
        x = 0
        while m:
            if m & 1 and (down[x] & universe) == 1 << x:
                prefixes.append(prefix | 1 << x)
                universes.append(universe & up[x] & ~(1 << x))
            m >>= 1
            x += 1
    out.sort(reverse=True)
    return out


def _strict_order(up):
    """Strict up masks, strict down masks and every pair (i, j) with i < j,
    of up masks given as ints or numpy ints."""
    strict_up = [int(m) & ~(1 << i) for i, m in enumerate(up)]
    strict_down = [0] * len(strict_up)
    pairs = []
    for i, m in enumerate(strict_up):
        while m:
            low = m & -m
            j = low.bit_length() - 1
            strict_down[j] |= 1 << i
            pairs.append((i, j))
            m ^= low
    return strict_up, strict_down, pairs


class _FilledTable(dict):
    """key -> build(*args, key), filled on lookup.

    The entries are shared by every caller, who only reads them.
    """

    __slots__ = ("build", "args")

    def __init__(self, build, *args):
        super().__init__()
        self.build = build
        self.args = args

    def __missing__(self, key):
        value = self[key] = self.build(*self.args, key)
        return value


class PosetFacts(tuple):
    """The up masks of one poset, and the facts every map of it reads.

    The record is the tuple of up masks itself, so it stands wherever up
    masks are read. Every other field is built on first use, so a record
    looked up only by its isomorphism class costs its canonical form `iso`
    and class id `cls` alone; `hasse` holds the covering pairs. Its tables
    are filled on lookup:
    `dchains[allowed]` is `_maximal_dchains(up, down, allowed)`, order
    included, `links[c]` is `_chain_links(down, c)`, and for a map with the
    values `cmap`, `allowed[cmap]` is `_allowed_masks(self, cmap)`,
    `images[cmap]` is `_image_table(n, cmap)`, and for a map out of the
    poset with record r, `words[r, cmap]` is its `property_bits` word. A
    field or entry, once built, is never changed. Records live in
    `_RECORDS` for the life of the process, one per order: sweeps and
    searches look them up there, and so does every `Poset` with that order,
    as `Poset.facts`, which every SpectralMap over it reads.
    """

    def __new__(cls, up):
        return super().__new__(cls, [int(m) for m in up])

    def __init__(self, up):
        self.n = len(self)

    @cached_property
    def down(self) -> list[int]:
        return _down_masks(self.n, self)

    @cached_property
    def comp(self) -> list[int]:
        return _comp_masks(self.n, self, self.down)

    @cached_property
    def strict_order(self) -> tuple[list[int], list[int], list[tuple[int, int]]]:
        return _strict_order(self)

    @cached_property
    def hasse(self) -> tuple[tuple[int, int], ...]:
        # the pairs (i, j), i < j with nothing in between, row-major: the
        # covers of i are its strict up-set minus everything strictly above
        # a member of it
        strict = self.strict_order[0]
        pairs = []
        for i, above in enumerate(strict):
            beyond = 0
            rest = above
            while rest:
                low = rest & -rest
                beyond |= strict[low.bit_length() - 1]
                rest ^= low
            rest = above & ~beyond
            while rest:
                low = rest & -rest
                pairs.append((i, low.bit_length() - 1))
                rest ^= low
        return tuple(pairs)

    @cached_property
    def max_chains(self) -> list[int]:
        return _maximal_chain_masks(self.n, self, self.down)

    @cached_property
    def chains(self) -> list[int]:
        return _chain_masks(self.n, self.comp)

    @cached_property
    def chain_steps(self) -> list[tuple[int, int, int]]:
        # each nonempty chain, the chain left without its least member, and
        # that member; the smaller chain comes earlier in ascending order
        return [(d, d & (d - 1), (d & -d).bit_length() - 1) for d in self.chains[1:]]

    @cached_property
    def ends(self) -> dict[int, tuple[int, int]]:
        # each nonempty chain, ascending -> the one-member chains of its
        # least and greatest member; the member p a step adds is comparable
        # with the smaller chain's ends, so it is the new least iff it lies
        # below the old least, and dually
        ends = {}
        for d, rest, p in self.chain_steps:
            bit = 1 << p
            least, greatest = ends.get(rest, (bit, bit))
            ends[d] = (
                bit if self[p] & least else least, bit if self.down[p] & greatest else greatest
            )
        return ends

    @cached_property
    def links(self) -> _FilledTable:
        # chain -> its pairs of consecutive members, one entry per chain read
        return _FilledTable(_chain_links, self.down)

    @cached_property
    def iso(self) -> tuple[int, ...]:
        # the canonical form of the strict up masks
        return _canonical_encoding(tuple(m & ~(1 << i) for i, m in enumerate(self)))

    @cached_property
    def cls(self) -> int:
        # a small id of the isomorphism class, the same for every record of
        # the class within one process: the scan memos' key
        return _CLASS_IDS.setdefault(self.iso, len(_CLASS_IDS))

    @cached_property
    def dchains(self) -> _FilledTable:
        # at most 2^n entries
        return _FilledTable(_maximal_dchains, self, self.down)

    @cached_property
    def allowed(self) -> _FilledTable:
        # one entry per value tuple a scan of this poset has read
        return _FilledTable(_allowed_masks, self)

    @cached_property
    def images(self) -> _FilledTable:
        # value tuple -> _image_table, one entry per value tuple read
        return _FilledTable(_image_table, self.n)

    @cached_property
    def words(self) -> _FilledTable:
        # (r record, value tuple) -> property_bits word, one entry per map read
        return _FilledTable(_map_word, self)


def _map_word(s, key):
    # the property_bits word of the map out of s with key (r record, value tuple)
    return property_bits(s.n, s, key[0].n, *key)


def _raw_up(strict_rows: tuple[int, ...]) -> tuple[int, ...]:
    """Up masks, self bits included, of a poset given by strict rows."""
    return tuple(row | (1 << i) for i, row in enumerate(strict_rows))


#: strict up rows -> PosetFacts record of every labeled poset a sweep, a
#: search or a class split has looked up and of every order a Poset has
#: been built on; the one table of the process, which a forked worker
#: inherits as it stood at the fork
_RECORDS = _FilledTable(lambda rows: PosetFacts(_raw_up(rows)))

#: canonical form -> the class id that PosetFacts.cls reads, in the order
#: the classes were met; ids agree only within one process
_CLASS_IDS: dict[tuple[int, ...], int] = {}


def _allowed_masks(s, cmap):
    """Chain D of s -> the elements of r that contract into D (never TOP).

    allowed[D] is the OR of the preimage masks pre[p] over the members p of
    D, built one member at a time along `s.chain_steps`.
    """
    pre = [0] * (s.n + 1)
    bit = 1
    for v in cmap:
        pre[v] |= bit
        bit <<= 1
    allowed = {0: 0}
    for d, rest, p in s.chain_steps:
        allowed[d] = allowed[rest] | pre[p]
    return allowed


def _image_mask(cmap, c_mask):
    # the contractions of the members of c; bit ns stands for TOP
    img = 0
    while c_mask:
        low = c_mask & -c_mask
        img |= 1 << cmap[low.bit_length() - 1]
        c_mask ^= low
    return img


def _image_table(ns, cmap):
    """Subset mask of r -> the mask of its members' contractions under `cmap`.

    Bit ns stands for TOP. When r has at most 8 elements and s at most 7,
    every image fits a byte and all 2^|r| are listed in one `bytes`, each
    subset extending the one without its highest element; otherwise an
    image is computed when first read.
    """
    if ns > 7 or len(cmap) > 8:
        return _FilledTable(_image_mask, cmap)
    images = [0]
    for v in cmap:
        bit = 1 << v
        images += [m | bit for m in images]
    return bytes(images)


def _chain_links(down, c):
    # the pairs (x, y) of members of the chain c, y next above x, ordered by
    # the number of members at or below each
    members = [x for x in range(len(down)) if c >> x & 1]
    members.sort(key=lambda x: (c & down[x]).bit_count())
    return list(zip(members, members[1:]))


def _end_lift_code(end, s, r, cmap, allowed):
    """Covers of each nonempty chain D through the lifts of one end of D.

    The end is the least member of D for end 0 and the greatest for end 1,
    as `s.ends` lists them. Returns 1 when some lift of the end lies on no
    maximal D-chain covering D (a cover through it would extend to such a
    maximal one), else 2 when some maximal D-chain through a lift is not a
    cover, else 0.
    """
    images = s.images[cmap]
    dchains = r.dchains
    code = 0
    for d, ends in s.ends.items():
        lifts = allowed[ends[end]]
        covering = other = 0
        for c in dchains[allowed[d]]:
            if images[c] == d:
                covering |= c
            else:
                other |= c
        if lifts & ~covering:
            return 1
        if lifts & other:
            code = 2
    return code


def prop_sclo(s, r, cmap, allowed):
    # every element over the least member of a chain D starts a cover of D
    return _end_lift_code(0, s, r, cmap, allowed) != 1


def prop_ggd(s, r, cmap, allowed):
    # dual: every element over the greatest member of D ends a cover of D
    return _end_lift_code(1, s, r, cmap, allowed) != 1


def prop_chain_morphism(s, r, cmap, allowed):
    # every chain in s is covered by some chain in r, and so by a maximal
    # D-chain: extending a cover inside D keeps its image
    images = s.images[cmap]
    dchains = r.dchains
    for d in s.chains[1:]:
        for c in dchains[allowed[d]]:
            if images[c] == d:
                break
        else:
            return False
    return True


def layers_held(least, most, s, r, allowed):
    """held[k] for least <= k <= most: every maximal D-chain over every
    k-element chain D has k elements; one pass over the chains."""
    held = [True] * (most + 1)
    dchains = r.dchains
    for d in s.chains[1:]:
        k = d.bit_count()
        if least <= k <= most and held[k]:
            for c in dchains[allowed[d]]:
                if c.bit_count() != k:
                    held[k] = False
                    break
    return held


def property_bits(ns, s_up, nr, r_up, cmap):
    """LO, INC, GU, GD, SGB, GB and unitarity of one map as PROP_* flags.

    `s_up` and `r_up` are up masks or PosetFacts records, and `cmap` the
    map's values; numpy int64 arrays are read too. With pre[p] the elements
    of r that contract to p (pre[ns] those that contract to TOP), under[p]
    the elements strictly below some member of pre[p], over[p] those
    strictly above one, and lower[p] and upper[p] the preimages of the
    elements strictly below and above p in s, each property is a mask test:

    - unitary: pre[ns] is empty; LO: no pre[p] of s is.
    - INC: under[p] lies in lower[p]; GU: lower[p] lies in under[p];
      GD: upper[p] lies in over[p], for every p of s.
    - SGB: for q1 < q3 in r contracting to p1 and p3 of s, every p2 with
      p1 < p2 < p3 has a lift in r_sup[q1] & r_sdown[q3]; GB: if there is
      such a p2, that set is not empty.
    """
    s_sup, s_sdown, s_pairs = (
        s_up.strict_order if isinstance(s_up, PosetFacts) else _strict_order(s_up)
    )
    r_sup, r_sdown, r_pairs = (
        r_up.strict_order if isinstance(r_up, PosetFacts) else _strict_order(r_up)
    )
    pre = [0] * (ns + 1)
    bit = 1
    for v in cmap:
        pre[v] |= bit
        bit <<= 1
    under = [0] * (ns + 1)
    over = [0] * (ns + 1)
    sgb = gb = True
    for q1, q3 in r_pairs:
        c1 = cmap[q1]
        c3 = cmap[q3]
        under[c3] |= 1 << q1
        over[c1] |= 1 << q3
        if c1 == ns or c3 == ns:
            continue
        mids = s_sup[c1] & s_sdown[c3]
        if not mids:
            continue
        span = r_sup[q1] & r_sdown[q3]
        if not span:
            sgb = gb = False
            continue
        while sgb and mids:
            low = mids & -mids
            if not span & pre[low.bit_length() - 1]:
                sgb = False
            mids ^= low
    lower = [0] * ns
    upper = [0] * ns
    for p1, p2 in s_pairs:
        lower[p2] |= pre[p1]
        upper[p1] |= pre[p2]
    bits = 0
    if not pre[ns]:
        bits |= PROP_UNITARY
    if all(pre[:ns]):
        bits |= PROP_LO
    inc = gu = gd = True
    for p in range(ns):
        if under[p] & ~lower[p]:
            inc = False
        if lower[p] & ~under[p]:
            gu = False
        if upper[p] & ~over[p]:
            gd = False
    if inc:
        bits |= PROP_INC
    if gu:
        bits |= PROP_GU
    if gd:
        bits |= PROP_GD
    if sgb:
        bits |= PROP_SGB
    if gb:
        bits |= PROP_GB
    return bits


# Conclusions. Each takes (s, r, cmap, bits, allowed) and returns a clause
# code, 0 when the conclusion holds on the instance; `bits` is the map's
# property_bits word. A maximal D-chain C covers D when its image,
# s.images[cmap][C], is D.


def _maxchain_images(perfect):
    # the image of each maximal chain of r is a maximal chain of s
    # (T_COVER_MAXCHAIN), and with `perfect` one of the same size
    # (C_PERFECT_MAXCHAIN)
    def conclusion(s, r, cmap, bits, allowed):
        ns = s.n
        images = s.images[cmap]
        for cm in r.max_chains:
            img = images[cm]
            if img >> ns:
                return 1
            if not _is_chain(s.comp, img):
                return 2
            if not _is_maximal_sub(s.comp, (1 << ns) - 1, img):
                return 3
            if perfect and cm.bit_count() != img.bit_count():
                return 4
        return 0

    return conclusion


def _iff(props, test):
    # the properties of the mask `props` hold together iff `test` over
    # (s, r, cmap, allowed) does: code 1 when only the properties hold, 2
    # when only the test does
    def conclusion(s, r, cmap, bits, allowed):
        left = bits & props == props
        if left == test(s, r, cmap, allowed):
            return 0
        return 1 if left else 2

    return conclusion


def _dchains_nonempty(s, r, cmap, allowed):
    # every nonempty chain D has a nonempty maximal D-chain: allowed[D]
    # grows with D, so it is enough that each one-member chain has one
    return all(allowed[1 << p] for p in range(s.n))


#: the properties that layers 1, 1-2 and 1-3 stand for
_LAYER_1 = PROP_LO | PROP_INC
_LAYER_2 = _LAYER_1 | PROP_GU | PROP_GD
_LAYER_3 = _LAYER_2 | PROP_SGB


def _layers(s, r, cmap, bits, allowed):
    _, l1, l2, l3 = layers_held(1, 3, s, r, allowed)
    if l1 != (bits & _LAYER_1 == _LAYER_1):
        return 1
    if (l1 and l2) != (bits & _LAYER_2 == _LAYER_2):
        return 2
    if (l1 and l2 and l3) != (bits & _LAYER_3 == _LAYER_3):
        return 3
    return 0


# The chain sides of the mini theorems: on each chain D of s, each nonempty
# maximal D-chain C brackets every member of D. Every contraction of C lies
# in the chain D, so each member of D lies above one (GD) iff min D is one,
# and below one (GU) iff max D is one. A proper cut of C lies between
# consecutive members x < y of C, and the members of D on neither side of
# it (SGB) are those strictly between the contractions of x and y.


def _meets_end_lifts(end):
    # P_MINI_GD (end 0, min D) and P_MINI_GU (end 1, max D): every nonempty
    # maximal D-chain holds a lift of that end of D
    def holds(s, r, cmap, allowed):
        dchains = r.dchains
        for d, ends in s.ends.items():
            d_allowed = allowed[d]
            if d_allowed:
                lifts = allowed[ends[end]]
                for c in dchains[d_allowed]:
                    if not c & lifts:
                        return False
        return True

    return holds


def _brackets_cuts(s, r, cmap, allowed):
    # P_MINI_SGB; a chain D of at most two members has no member strictly
    # between two others
    s_sup, s_sdown, _ = s.strict_order
    dchains = r.dchains
    links = r.links
    for d in s.chains[1:]:
        d_allowed = allowed[d]
        if d_allowed and d.bit_count() > 2:
            for c in dchains[d_allowed]:
                for x, y in links[c]:
                    if d & s_sup[cmap[x]] & s_sdown[cmap[y]]:
                        return False
    return True


def _end_lifts(end):
    # C_GGD reads the lifts of max D (end 1), C_GGU_DUAL those of min D
    def conclusion(s, r, cmap, bits, allowed):
        return _end_lift_code(end, s, r, cmap, allowed)

    return conclusion


def _all_max_dchains_cover(s, r, cmap, allowed):
    images = s.images[cmap]
    dchains = r.dchains
    for d in s.chains[1:]:
        for c in dchains[allowed[d]]:
            if c != 0 and images[c] != d:
                return False
    return True


def _perfect_covers(s, r, cmap, bits, allowed):
    images = s.images[cmap]
    dchains = r.dchains
    for d in s.chains:
        for c in dchains[allowed[d]]:
            if images[c] != d:
                return 1
            if c.bit_count() != d.bit_count():
                return 2
    return 0


def _equivalent(s, r, cmap, bits, allowed):
    cond2 = bits & _LAYER_3 == _LAYER_3
    cond1 = True
    cond3 = True
    cond4 = True
    images = s.images[cmap]
    dchains = r.dchains
    for d in s.chains:
        k = d.bit_count()
        for c in dchains[allowed[d]]:
            sz = c.bit_count()
            if sz != k:
                cond3 = cond4 = False
                if 1 <= k <= 3:
                    cond1 = False
            elif cond3 and images[c] != d:
                cond3 = False
        if not (cond1 or cond3 or cond4):
            # the conditions only ever turn false, so the code is settled
            break
    held = cond1 | cond2 << 1 | cond3 << 2 | cond4 << 3
    if held == 0 or held == 15:
        return 0
    return held + 1


def _sclo_iff_gu(s, r, cmap, bits, allowed):
    # code 1 when only SCLO holds, 2 when only GU does
    sclo = prop_sclo(s, r, cmap, allowed)
    if sclo == bool(bits & PROP_GU):
        return 0
    return 1 if sclo else 2


def _maxcovers_maximal(s, r, cmap, bits, allowed):
    full = (1 << r.n) - 1
    images = s.images[cmap]
    for d in s.max_chains:
        for c in r.dchains[allowed[d]]:
            if images[c] == d and not _is_maximal_sub(r.comp, full, c):
                return 1
    return 0


def _maxchain_dchains_maximal(s, r, cmap, bits, allowed):
    # every nonempty maximal D-chain over a maximal chain D covers D and is
    # a maximal chain of r
    full = (1 << r.n) - 1
    images = s.images[cmap]
    for d in s.max_chains:
        for c in r.dchains[allowed[d]]:
            if c == 0:
                continue
            if images[c] != d:
                return 1
            if not _is_maximal_sub(r.comp, full, c):
                return 2
    return 0


def _maxchain_has_maximal_cover(s, r, cmap, bits, allowed):
    # every maximal chain D has a maximal D-chain that covers D and is a
    # maximal chain of r
    full = (1 << r.n) - 1
    images = s.images[cmap]
    for d in s.max_chains:
        for c in r.dchains[allowed[d]]:
            if c and images[c] == d and _is_maximal_sub(r.comp, full, c):
                break
        else:
            return 1
    return 0


def _statement(hypotheses, conclusion):
    # (hypothesis names, their flags as one mask, conclusion)
    mask = 0
    for name in hypotheses:
        mask |= HYPOTHESIS_BITS[name]
    return hypotheses, mask, conclusion


#: theorem name -> _statement; the biconditionals have no hypotheses. The
#: names are the values of theorems.TheoremId, in its member order.
THEOREMS = {
    "T_COVER_MAXCHAIN": _statement(
        ("unitary", "GU", "GD", "SGB"), _maxchain_images(perfect=False)
    ),
    "C_PERFECT_MAXCHAIN": _statement(
        ("unitary", "INC", "GU", "GD", "SGB"), _maxchain_images(perfect=True)
    ),
    "L_LO_EXISTENCE": _statement((), _iff(PROP_LO, _dchains_nonempty)),
    "P_LAYERS": _statement((), _layers),
    "P_MINI_GD": _statement((), _iff(PROP_GD, _meets_end_lifts(0))),
    "P_MINI_GU": _statement((), _iff(PROP_GU, _meets_end_lifts(1))),
    "P_MINI_SGB": _statement((), _iff(PROP_SGB, _brackets_cuts)),
    "C_GGD": _statement(("GD", "SGB"), _end_lifts(1)),
    "C_GGU_DUAL": _statement(("GU", "SGB"), _end_lifts(0)),
    "T_MAXDCHAIN_COVERS": _statement(
        (), _iff(PROP_GD | PROP_GU | PROP_SGB, _all_max_dchains_cover)
    ),
    "T_PERFECT_COVER": _statement(("LO", "INC", "GU", "GD", "SGB"), _perfect_covers),
    "C_EQUIVALENT": _statement((), _equivalent),
    "L_MAXCOVER_MAXCHAIN": _statement(("unitary",), _maxcovers_maximal),
    "C_MAXDCHAIN_MAXCHAIN": _statement(
        ("unitary", "GD", "GU", "SGB"), _maxchain_dchains_maximal
    ),
    "C_EXISTS_MAXCHAIN_COVER": _statement(
        ("unitary", "LO", "GD", "GU", "SGB"), _maxchain_has_maximal_cover
    ),
    "X_KO_SCLO_EQ_GU": _statement(("unitary",), _sclo_iff_gu),
}


def eval_theorem(tid, waive, s, r, cmap, bits, allowed):
    """Evaluate the theorem named `tid` on one instance.

    `s` and `r` are PosetFacts records, `cmap` the map's values as a tuple,
    `bits` its property_bits word and `allowed` its `_allowed_masks(s,
    cmap)`. Returns 0 when the statement holds on the instance, which it does
    whenever a hypothesis is unmet unless `waive` forces the conclusion to
    be checked anyway, and a positive clause code otherwise.
    """
    _, need, conclusion = THEOREMS[tid]
    if not waive and bits & need != need:
        return 0
    return conclusion(s, r, cmap, bits, allowed)


def monotone_maps(ns, s_up, nr, r_up, allow_top):
    """Every monotone map r -> s (+ top) as a list of value tuples.

    The tuples are in lexicographic order, s indices first, then the top
    sentinel ns when allow_top is set. A map's list index is the map index
    that sweeps and searches report.
    """
    maps = []
    _walk_maps(ns, s_up, nr, r_up, allow_top, maps)
    return maps


def count_monotone_maps(ns, s_up, nr, r_up, allow_top):
    """Number of monotone maps for one poset pair, without listing them."""
    return _walk_maps(ns, s_up, nr, r_up, allow_top, None)


def _walk_maps(ns, s_up, nr, r_up, allow_top, maps):
    """Count the monotone maps r -> s (+ top), appending each to `maps`
    in the order of monotone_maps unless `maps` is None.

    The values still possible at a position form a mask: every value, cut
    down to the values over those of the elements placed below it and
    under those of the elements placed above it. Its bits are taken in
    ascending order, TOP (bit ns) last. At the last position every bit of
    the mask completes one map, so a count adds its popcount.
    """
    if nr == 0:
        if maps is not None:
            maps.append(())
        return 1
    s_up = [int(m) for m in s_up]
    r_up = [int(m) for m in r_up]
    top = 1 << ns
    over = [m | top for m in s_up] + [top]
    under = _down_masks(ns, s_up) + [(top << 1) - 1]
    every = (top << 1) - 1 if allow_top else top - 1
    below = [[j for j in range(pos) if r_up[j] >> pos & 1] for pos in range(nr)]
    above = [[j for j in range(pos) if r_up[pos] >> j & 1] for pos in range(nr)]
    count = 0
    cmap = [0] * nr
    untried = [0] * nr
    untried[0] = every
    last = nr - 1
    pos = 0
    while pos >= 0:
        m = untried[pos]
        if pos == last:
            count += m.bit_count()
            while maps is not None and m:
                low = m & -m
                cmap[pos] = low.bit_length() - 1
                maps.append(tuple(cmap))
                m ^= low
            pos -= 1
            continue
        if not m:
            pos -= 1
            continue
        low = m & -m
        untried[pos] = m ^ low
        cmap[pos] = low.bit_length() - 1
        pos += 1
        m = every
        for j in below[pos]:
            m &= over[cmap[j]]
        for j in above[pos]:
            m &= under[cmap[j]]
        untried[pos] = m
    return count


def _relabel(rows, perm):
    """The masks `rows` with element i renamed perm[i].

    Bit j of rows[i] becomes bit perm[j] of the image's row perm[i]; rows
    with or without self bits map alike.
    """
    img = [0] * len(rows)
    for i, m in enumerate(rows):
        v = 0
        while m:
            low = m & -m
            v |= 1 << perm[low.bit_length() - 1]
            m ^= low
        img[perm[i]] = v
    return tuple(img)


#: strict up masks -> (the least relabeling, the automorphism group with the
#: identity first); filled one isomorphism class at a time
_CANONICAL: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}


def _class_entry(rows: tuple[int, ...]):
    """(least relabeling, automorphisms) of the strict up masks `rows`.

    The n! relabelings of the first poset met of a class are every labeled
    member of that class, so each member is stored at once, and a class is
    relabeled once per process, not once per poset. The member that a
    permutation p makes of `rows` has the group p a p^-1 for each
    automorphism a of `rows`, the identity still first.
    """
    entry = _CANONICAL.get(rows)
    if entry is None:
        n = len(rows)
        made = {}  # member -> a permutation that makes it of `rows`
        group = []
        for perm in permutations(range(n)):
            img = _relabel(rows, perm)
            made.setdefault(img, perm)
            if img == rows:
                group.append(perm)
        best = min(made)
        for img, p in made.items():
            back = sorted(range(n), key=p.__getitem__)
            _CANONICAL[img] = (best, tuple(tuple([p[a[i]] for i in back]) for a in group))
        entry = _CANONICAL[rows]
    return entry


def _canonical_encoding(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Least relabeling of the strict up masks `rows` over all permutations."""
    return _class_entry(rows)[0]


def _automorphisms(up) -> tuple[tuple[int, ...], ...]:
    """Permutations p with i <= j iff p[i] <= p[j], the identity first."""
    return _class_entry(tuple(m & ~(1 << i) for i, m in enumerate(up)))[1]


#: (s_up, r_up, allow_top) -> the _map_orbits entry of that labeled pair,
#: in the order the entries were built; filled on lookup, never shrinks
_ORBITS: dict = {}


def _map_orbits(s_up: tuple[int, ...], r_up: tuple[int, ...], allow_top: bool):
    """(count, indices, maps, words) of the monotone maps of one labeled pair.

    `count` is the number of maps, and `maps` holds one representative per
    orbit of Aut(s) x Aut(r), in ascending order of index: the orbit's
    least map, whose index is indices[i]. words[i] is the property_bits
    word of maps[i], all computed here, from the pair's strict orders, into
    one immutable `bytes`. The pair (sigma, tau) sends a map f to the map g
    with g[tau[q]] = sigma[f[q]], TOP staying TOP. With a trivial group
    every map is its own orbit, and the indices are a range.

    The entry is built once per process and kept in `_ORBITS`, like the
    poset tables: a sweep of another theorem over the same bounds, or a
    search, reuses it. Since `_ORBITS` keeps the order in which entries
    were built, the entries a pool task builds are the tail it adds to the
    table; a pool child hands that tail back with its result, so the
    caller holds every entry its pools built (theorems.run_chunks).
    """
    key = (s_up, r_up, allow_top)
    entry = _ORBITS.get(key)
    if entry is not None:
        return entry
    s, r = PosetFacts(s_up), PosetFacts(r_up)
    maps = monotone_maps(s.n, s, r.n, r, allow_top)
    top = (s.n,)
    moves = [
        (sigma + top, tuple(sorted(range(len(tau)), key=tau.__getitem__)))
        for sigma in _automorphisms(s_up)
        for tau in _automorphisms(r_up)
    ][1:]
    if not moves:
        indices, reps = range(len(maps)), maps
    else:
        indices, reps = array("I"), []
        seen = set()
        for k, cmap in enumerate(maps):
            if cmap in seen:
                continue
            indices.append(k)
            reps.append(cmap)
            for sigma, back in moves:
                # g[j] = sigma[f[tau^-1[j]]]
                seen.add(tuple([sigma[cmap[q]] for q in back]))
    words = bytes([property_bits(s.n, s, r.n, r, cmap) for cmap in reps])
    entry = _ORBITS[key] = len(maps), indices, reps, words
    return entry


#: (need, forbid) -> the 256-byte table that `bytes.translate` uses to mark
#: the words a scan must look at: 1 at each word w with w & need == need and
#: not w & forbid, 0 elsewhere
_FILTERS: dict[tuple[int, int], bytes] = {}


def _filter_table(need: int, forbid: int) -> bytes:
    table = _FILTERS.get((need, forbid))
    if table is None:
        table = _FILTERS[need, forbid] = bytes(
            w & need == need and not w & forbid for w in range(256)
        )
    return table


def _first_violation(need, forbid, check, args, s, r, indices, maps, words):
    """(index, code) of the first map that passes the filter and fails the check,
    or (-1, 0).

    maps[i] has the index indices[i] and the property-bits word words[i]. A
    map passes the filter when its word has every flag of `need` and none
    of `forbid`; `check(*args, s, r, cmap, bits, allowed)` then returns a
    clause code or a bool, with `allowed` the map's entry `s.allowed[cmap]`.
    The next map that passes is found in C, by `find` on the words
    translated through _filter_table, so a map the filter rejects costs no
    Python call.
    """
    if args:
        # bound once, so each map costs a plain call
        check = partial(check, *args)
    allowed = s.allowed
    find = words.translate(_filter_table(need, forbid)).find
    i = find(1)
    while i >= 0:
        cmap = maps[i]
        code = check(s, r, cmap, words[i], allowed[cmap])
        if code:
            return indices[i], code
        i = find(1, i + 1)
    return -1, 0


def _full_scan(need, forbid, check, args, s, r, allow_top):
    """(maps of the pair, index of its first map failing `check` or -1, code).

    `need`, `forbid`, `check` and `args` are as in _first_violation, and
    `s` and `r` are up masks or PosetFacts records. Every map and its word
    is computed, and every map that passes the filter is checked, in
    monotone_maps order, with no orbits and no memo: the reference that the
    tests hold the orbit scans to.
    """
    s = s if isinstance(s, PosetFacts) else PosetFacts(s)
    r = r if isinstance(r, PosetFacts) else PosetFacts(r)
    maps = monotone_maps(s.n, s, r.n, r, allow_top)
    words = bytes([property_bits(s.n, s, r.n, r, cmap) for cmap in maps])
    return len(maps), *_first_violation(
        need, forbid, check, args, s, r, range(len(maps)), maps, words
    )


def sweep_pair(
    tid, waive, ns, s_up, nr, r_up, allow_top, *, memo=None, count_only=False
):
    """Evaluate a theorem over every monotone map for one poset pair.

    `s_up` and `r_up` are up masks or, from a sweep, the posets' records
    in `_RECORDS`. Returns (maps of the pair, index of the first violating
    map or -1, its clause code). A sweep chunk calls it once per labeled
    pair, and once it has its first violation passes `count_only` for
    every later pair, whose counts it still sums; with `count_only` the
    maps are only counted.

    The scan filters the maps on the theorem's hypothesis mask, unless
    `waive`, and checks the theorem's conclusion on those that pass, so a
    map that misses a hypothesis costs a byte of the filter and no call.
    Without `memo` that is _full_scan. `memo` is a dict owned by one sweep
    chunk (one tid, waive and allow_top); with it only the pair's orbit
    representatives (_map_orbits) are scanned. The filter and every
    conclusion are invariant under relabeling s and r, and each map before
    the first failing representative lies in the orbit of an earlier,
    clean one, so that representative is the pair's first failing map. The
    memo maps each isomorphism class (s.cls, r.cls) met to ((map count,
    -1, 0), whether every map came out clean). A later pair of a clean
    class, or a count_only pair of any recorded class, returns that answer
    unchecked; a class with a failing map is scanned on every pair, so the
    index is exact for each labeling. `theorems.verify` checks the same
    statement on one map, through `eval_theorem`, for the object level and
    the replays.
    """
    if memo is None:
        if count_only:
            return count_monotone_maps(ns, s_up, nr, r_up, allow_top), -1, 0
        _, need, conclusion = THEOREMS[tid]
        return _full_scan(0 if waive else need, 0, conclusion, (), s_up, r_up, allow_top)
    # most pairs of a sweep are answered by the memo, so its test comes
    # first, on the records' class ids
    try:
        key = (s_up.cls, r_up.cls)
    except AttributeError:  # up masks
        s_up, r_up = PosetFacts(s_up), PosetFacts(r_up)
        key = (s_up.cls, r_up.cls)
    known = memo.get(key)
    if known is not None and (known[1] or count_only):
        return known[0]
    if count_only:
        count, first, code = count_monotone_maps(ns, s_up, nr, r_up, allow_top), -1, 0
    else:
        _, need, conclusion = THEOREMS[tid]
        count, indices, maps, words = _map_orbits(tuple(s_up), tuple(r_up), allow_top)
        first, code = _first_violation(
            0 if waive else need, 0, conclusion, (), s_up, r_up, indices, maps, words
        )
    memo[key] = ((count, -1, 0), not count_only and first < 0)
    return count, first, code


def _goal_met(goal_id, goal_size, s, r, cmap, bits, allowed):
    if goal_id == GOAL_LO_FAILS:
        return not bits & PROP_LO
    images = s.images[cmap]
    for d in s.chains[1:]:
        if goal_size > 0 and d.bit_count() != goal_size:
            continue
        for c in r.dchains[allowed[d]]:
            if images[c] != d:
                return True
            if goal_id == GOAL_MAXDCHAIN_NOT_PERFECT and c.bit_count() != d.bit_count():
                return True
    return False


def search_pair(
    ns, s_up, nr, r_up, allow_top, need_bits, forbid_bits, goal_id, goal_size
):
    """First monotone map meeting the flag and goal constraints, if any.

    Returns (maps scanned, index of the hit or -1). The scan filters the
    maps on the flags, `need_bits` and `forbid_bits`, and tests the goal
    (_goal_met) on those that pass. It stops at the first hit, so a hit at
    index k reports k+1 scanned. On plain up masks every map is scanned
    (_full_scan), which is the tests' reference. On two PosetFacts records,
    as a search passes them from `_RECORDS`, only the pair's orbit
    representatives (_map_orbits) are looked at: the flags and the goal are
    invariant under relabeling, so the first hitting representative is the
    pair's first hitting map.
    """
    # _goal_met is read at call time, so a wrapper installed later is seen
    goal_args = (goal_id, goal_size)
    if isinstance(s_up, PosetFacts) and isinstance(r_up, PosetFacts):
        count, indices, maps, words = _map_orbits(tuple(s_up), tuple(r_up), allow_top)
        hit, _ = _first_violation(
            need_bits, forbid_bits, _goal_met, goal_args, s_up, r_up, indices, maps, words
        )
    else:
        count, hit, _ = _full_scan(
            need_bits, forbid_bits, _goal_met, goal_args, s_up, r_up, allow_top
        )
    return (count, -1) if hit < 0 else (hit + 1, hit)
