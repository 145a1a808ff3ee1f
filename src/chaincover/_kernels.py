"""Bitmask kernels for property checks and exhaustive sweeps.

Everything in this module works on a flat encoding over plain ints: a poset
with n elements is a sequence of up-set masks (bit j of up[i] means
i <= j, self bit included), a contraction map is a sequence of values with
the sentinel value ns standing for the adjoined top element, and chains are
membership masks. property_bits and monotone_maps also take numpy int64
arrays.

Two primitives carry every sweep and search. `monotone_maps` lists the
monotone maps of a poset pair as value tuples, in the lexicographic order
whose list indices sweeps and searches report and replays look up.
`_maximal_dchains` lists the maximal chains inside a set of elements: on
the elements that contract into a chain D, the maximal D-chains the
theorems speak about.

The theorems read facts computed once. A `PosetFacts` record holds what
depends on one poset, with tables filled on lookup, among them per map
value tuple `cmap` out of it `allowed` (chain D -> the elements of r
contracting into D, so the maximal D-chains are `r.dchains[allowed[D]]`)
and `images`. Each theorem is one entry of `THEOREMS`: its hypotheses,
their PROP_* flags as one mask, a conclusion over (s, r, cmap, bits,
allowed) that returns a clause code, and a fails formula. `eval_theorem`
evaluates one map for `theorems.verify`, which checks object-level
instances and replays a sweep's first violation.

Sweeps check a theorem by its fails formula, and the conclusions are the
second, independent route. What a conclusion reads about a chain D of s
depends only on r and the lifts of D's members in chain order: a maximal
D-chain covers D iff it meets every lift, and a cut of it leaves a member
of D unbracketed iff its ends contract two or more steps apart along D. So
r's record keeps, per tuple of lifts, the flags of D's maximal D-chains
(`dflags`), and a map's fact word ORs them over the chains of s
(_map_facts). Over a pair's orbit representatives each fact is one int
with one bit per representative, and a formula over these and the
property ints is the mask of the violating ones (Knuth, TAOCP 4A, 7.1.3).

Sweeps and searches read each pair's orbit representatives (_map_orbits),
filtered by a few ANDs over their property ints (_holding). sweep_pair
evaluates the formula over those that meet the hypotheses and calls the
conclusion on the first violating one for its clause code; search_pair
calls `_goal_met` on those that pass its flags until one hits
(_first_violation). Without a memo, or on plain up masks, both scan every
map (`_full_scan`). The process-wide tables (`_RECORDS`, `_CANONICAL`,
`_CLASS_IDS`, `_ORBITS`, `_FACTS`) are filled on lookup and never shrink;
a map that no sweep's filter passes costs no fact word. At (4, 5) the
sixteen sweeps read about 60,000 `dflags` entries for 1.55 million
(representative, chain) pairs, and peak at about 50 MB.
"""

from __future__ import annotations

from array import array
from functools import cached_property, partial
from itertools import permutations
from operator import itemgetter

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
    masks are read. Every other field is built on first use, and never
    changed after, so a record looked up only by its class costs `iso` and
    `cls` alone. Its tables are filled on lookup: `dchains[allowed]`,
    `links[c]` and `dflags[lifts]` by the function each names, and per map
    with the values `cmap` out of the poset `allowed[cmap]`, `images[cmap]`
    and, into the poset with record r, `words[r, cmap]`, its property_bits
    word. Records live in `_RECORDS`, one per order, and every `Poset` with
    that order reads its record as `Poset.facts`.
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
    def lift_keys(self) -> tuple[list, list, list[list[int]]]:
        # itemgetters reading the lifts of each nonempty chain's members,
        # least first, off a map's preimage list, for the chains not maximal
        # and maximal, and the maximal ones' members
        keys = ([], [], [])
        for d in self.chains[1:]:
            members = _ordered(self.down, d)
            is_maximal = d in self.max_chains
            keys[is_maximal].append(itemgetter(*members))
            if is_maximal:
                keys[2].append(members)
        return keys

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
    def dflags(self) -> _FilledTable:
        # one entry per key of a chain's lifts (lift_keys) a sweep has read
        return _FilledTable(_dchain_flags, self)

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


def _preimages(ns, cmap):
    # pre[p]: the elements that `cmap` sends to p, pre[ns] those sent to TOP
    pre = [0] * (ns + 1)
    bit = 1
    for v in cmap:
        pre[v] |= bit
        bit <<= 1
    return pre


def _allowed_masks(s, cmap):
    """Chain D of s -> the elements of r that contract into D (never TOP).

    allowed[D] is the OR of the preimage masks pre[p] over the members p of
    D, built one member at a time along `s.chain_steps`.
    """
    pre = _preimages(s.n, cmap)
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


def _members(mask):
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def _ordered(down, c):
    # the members of the chain c, least first: by the members at or below each
    return sorted(_members(c), key=lambda x: (c & down[x]).bit_count())


def _chain_links(down, c):
    # the pairs (x, y) of members of the chain c, y next above x
    members = _ordered(down, c)
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
    pre = _preimages(ns, cmap)
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


# The facts of a map that sweeps keep, as bit positions of its fact word
# (_map_facts). Flags of the maximal D-chains of a chain D (_dchain_flags),
# ORed over the nonempty chains D of s:
F_NO_DCHAIN = 0  # only the empty chain is one
F_NOT_COVER = 1  # a nonempty one does not cover D
F_NOT_PERFECT = 2  # one is not a perfect cover of D
F_MISSES_LEAST, F_MISSES_GREATEST = 3, 4  # a nonempty one holds no lift of min D, of max D
F_UNBRACKETED = 5  # a cut of one leaves a member of D unbracketed
F_LEAST_UNCOVERED = 6  # a lift of min D lies on no covering one
F_LEAST_LIFTS = 7  # ... or on one that does not cover D
F_GREATEST_LIFTS = 8  # either, for the lifts of max D
F_SIZE_1 = 9  # + min(|D|, 4) - 1: one has other than |D| members
# ORed over the maximal chains D of s only:
F_COVER_NOT_MAXIMAL = 13  # a cover of D is not a maximal chain of r
F_NOT_MAXIMAL_COVER = 14  # a nonempty one is not a cover and a maximal chain of r
F_NO_MAXIMAL_COVER = 15  # none is; and the images of r's maximal chains:
F_IMAGE_NOT_MAXIMAL = 16  # one is not a maximal chain of s (TOP included)
F_IMAGE_NOT_PERFECT = 17  # one is not such a chain of its chain's size
_MAXIMAL_ONLY = 7 << F_COVER_NOT_MAXIMAL


def _dchain_flags(r, lifts):
    """The flags of the maximal D-chains of a chain D of s, from `lifts`, the
    elements of r contracting to each member of D, least first (one lift
    alone for a one-member D). Each lies in the lifts' union, so it covers D
    iff it meets every lift, and its cut between consecutive members x < y
    brackets D iff x and y contract at most one step apart along D."""
    if type(lifts) is not tuple:
        lifts = (lifts,)
    k = len(lifts)
    allowed = sum(lifts)  # the lifts are disjoint
    # element of r -> the position of its contraction along D
    step = {q: t for t, lift in enumerate(lifts) for q in _members(lift)}
    least, greatest = lifts[0], lifts[-1]
    word = (not allowed) << F_NO_DCHAIN | 1 << F_NO_MAXIMAL_COVER
    covering = other = 0
    for c in r.dchains[allowed]:
        cover = all(c & lift for lift in lifts)
        covering |= c if cover else 0
        other |= 0 if cover else c
        sized = c.bit_count() == k
        word |= (not sized) << F_SIZE_1 + min(k, 4) - 1 | (not (cover and sized)) << F_NOT_PERFECT
        if c:
            maximal = c in r.max_chains
            word |= (
                (not cover) << F_NOT_COVER
                | (not c & least) << F_MISSES_LEAST
                | (not c & greatest) << F_MISSES_GREATEST
                | (k > 2 and any(step[y] - step[x] > 1 for x, y in r.links[c])) << F_UNBRACKETED
                | (cover and not maximal) << F_COVER_NOT_MAXIMAL
                | (not (cover and maximal)) << F_NOT_MAXIMAL_COVER
            )
            if cover and maximal:
                word &= ~(1 << F_NO_MAXIMAL_COVER)
    bad = other | ~covering
    word |= bool(least & ~covering) << F_LEAST_UNCOVERED | bool(least & bad) << F_LEAST_LIFTS
    return word | bool(greatest & bad) << F_GREATEST_LIFTS


def _map_facts(s, r, cmap):
    """The fact word of the map `cmap` out of s into r: the flags of each
    nonempty chain D of s, read from r.dflags by the lifts of D's members,
    ORed over every D (those of _MAXIMAL_ONLY over the maximal chains of s
    only), and the image tests of the maximal chains of r."""
    pre = _preimages(s.n, cmap)
    flags = r.dflags
    others, maximal, _ = s.lift_keys
    every = top = 0
    for key in others:
        every |= flags[key(pre)]
    for key in maximal:
        top |= flags[key(pre)]
    word = (every | top) & ~_MAXIMAL_ONLY | top & _MAXIMAL_ONLY
    for members in r.lift_keys[2]:
        image = 0
        for q in members:
            image |= 1 << cmap[q]
        if image not in s.max_chains:
            word |= 1 << F_IMAGE_NOT_MAXIMAL | 1 << F_IMAGE_NOT_PERFECT
        elif image.bit_count() != len(members):
            word |= 1 << F_IMAGE_NOT_PERFECT
    return word


_FLAG_BITS = _FilledTable(lambda mask: [k for k in range(7) if mask >> k & 1])


def _holding(props, need, forbid=0, among=-1):
    # the maps of `among` whose property ints hold all flags of `need`, none of `forbid`
    for k in _FLAG_BITS[need]:
        among &= props[k]
    for k in _FLAG_BITS[forbid]:
        among &= ~props[k]
    return among


# Fails formulas take the property ints p and fact ints x of a pair's orbit
# representatives and return the mask of those that fail the conclusion,
# bits past the last left to the caller; a fact index f stands for x[f].


def _layers_fail(p, x):
    # layers 1..k hold where no chain of at most k members has a maximal
    # D-chain of another size
    l1 = ~x[F_SIZE_1]
    l2 = l1 & ~x[F_SIZE_1 + 1]
    l3 = l2 & ~x[F_SIZE_1 + 2]
    held = _holding(p, _LAYER_1), _holding(p, _LAYER_2), _holding(p, _LAYER_3)
    return (l1 ^ held[0]) | (l2 ^ held[1]) | (l3 ^ held[2])


def _equivalent_fail(p, x):
    # the four conditions of _equivalent fail where some, not all, hold
    sizes = x[F_SIZE_1] | x[F_SIZE_1 + 1] | x[F_SIZE_1 + 2]
    c1, c2, c3, c4 = ~sizes, _holding(p, _LAYER_3), ~x[F_NOT_PERFECT], ~(sizes | x[F_SIZE_1 + 3])
    return (c1 | c2 | c3 | c4) & ~(c1 & c2 & c3 & c4)


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

    return conclusion, F_IMAGE_NOT_PERFECT if perfect else F_IMAGE_NOT_MAXIMAL


def _iff(props, test, fact):
    # the properties of the mask `props` hold together iff `test` over
    # (s, r, cmap, allowed) does: code 1 when only the properties hold, 2
    # when only the test does; the test holds where `fact` does not
    def conclusion(s, r, cmap, bits, allowed):
        left = bits & props == props
        if left == test(s, r, cmap, allowed):
            return 0
        return 1 if left else 2

    return conclusion, lambda p, x: ~(_holding(p, props) ^ x[fact])


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

    return conclusion, F_GREATEST_LIFTS if end else F_LEAST_LIFTS


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


def _statement(hypotheses, conclusion, fails):
    # (hypothesis names, their flags as one mask, conclusion, fails formula)
    mask = 0
    for name in hypotheses:
        mask |= HYPOTHESIS_BITS[name]
    if type(fails) is int:
        fails = lambda p, x, fact=fails: x[fact]
    return hypotheses, mask, conclusion, fails


#: theorem name -> _statement; the biconditionals have no hypotheses. The
#: names are the values of theorems.TheoremId, in its member order.
THEOREMS = {
    "T_COVER_MAXCHAIN": _statement(("unitary", "GU", "GD", "SGB"), *_maxchain_images(perfect=False)),
    "C_PERFECT_MAXCHAIN": _statement(
        ("unitary", "INC", "GU", "GD", "SGB"), *_maxchain_images(perfect=True)
    ),
    "L_LO_EXISTENCE": _statement((), *_iff(PROP_LO, _dchains_nonempty, F_NO_DCHAIN)),
    "P_LAYERS": _statement((), _layers, _layers_fail),
    "P_MINI_GD": _statement((), *_iff(PROP_GD, _meets_end_lifts(0), F_MISSES_LEAST)),
    "P_MINI_GU": _statement((), *_iff(PROP_GU, _meets_end_lifts(1), F_MISSES_GREATEST)),
    "P_MINI_SGB": _statement((), *_iff(PROP_SGB, _brackets_cuts, F_UNBRACKETED)),
    "C_GGD": _statement(("GD", "SGB"), *_end_lifts(1)),
    "C_GGU_DUAL": _statement(("GU", "SGB"), *_end_lifts(0)),
    "T_MAXDCHAIN_COVERS": _statement(
        (), *_iff(PROP_GD | PROP_GU | PROP_SGB, _all_max_dchains_cover, F_NOT_COVER)
    ),
    "T_PERFECT_COVER": _statement(("LO", "INC", "GU", "GD", "SGB"), _perfect_covers, F_NOT_PERFECT),
    "C_EQUIVALENT": _statement((), _equivalent, _equivalent_fail),
    "L_MAXCOVER_MAXCHAIN": _statement(("unitary",), _maxcovers_maximal, F_COVER_NOT_MAXIMAL),
    "C_MAXDCHAIN_MAXCHAIN": _statement(
        ("unitary", "GD", "GU", "SGB"), _maxchain_dchains_maximal, F_NOT_MAXIMAL_COVER
    ),
    "C_EXISTS_MAXCHAIN_COVER": _statement(
        ("unitary", "LO", "GD", "GU", "SGB"), _maxchain_has_maximal_cover, F_NO_MAXIMAL_COVER
    ),
    # SCLO holds where no lift of min D lies on no covering maximal D-chain
    "X_KO_SCLO_EQ_GU": _statement(
        ("unitary",), _sclo_iff_gu, lambda p, x: ~(_holding(p, PROP_GU) ^ x[F_LEAST_UNCOVERED])
    ),
}


def eval_theorem(tid, waive, s, r, cmap, bits, allowed):
    """Evaluate the theorem named `tid` on one instance.

    `s` and `r` are PosetFacts records, `cmap` the map's values as a tuple,
    `bits` its property_bits word and `allowed` its `_allowed_masks(s,
    cmap)`. Returns 0 when the statement holds on the instance, which it does
    whenever a hypothesis is unmet unless `waive` forces the conclusion to
    be checked anyway, and a positive clause code otherwise.
    """
    _, need, conclusion, _ = THEOREMS[tid]
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
    """(count, indices, maps, props) of the monotone maps of one labeled pair.

    `count` is the number of maps, and `maps` holds one representative per
    orbit of Aut(s) x Aut(r), in ascending order of index: the orbit's
    least map, whose index is indices[i]. `props` holds the property_bits
    words of the representatives, all computed here from the pair's strict
    orders, as one int per PROP_* flag with one bit per representative
    (_bit_ints). The pair (sigma, tau) sends a map f to the map g with
    g[tau[q]] = sigma[f[q]], TOP staying TOP. With a trivial group every
    map is its own orbit, and the indices are a range.

    The entry is built once per process and kept in `_ORBITS`, in the
    order entries are built, so the entries a pool task builds are the tail
    it adds, which a pool child hands back (theorems.run_chunks).
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
    props = _bit_ints([bytes([property_bits(s.n, s, r.n, r, cmap) for cmap in reps])], 7)
    entry = _ORBITS[key] = len(maps), indices, reps, props
    return entry


#: bit k -> the `bytes.translate` table that writes bit k of a byte as the
#: ASCII digit 0 or 1
_DIGITS = _FilledTable(lambda k: bytes(48 + (w >> k & 1) for w in range(256)))


def _bit_ints(planes, count):
    """`count` ints from the byte strings `planes`, a byte per map: bit i of
    the k-th is bit k % 8 of planes[k // 8][i], read in C from digits."""
    planes = [plane[::-1] for plane in planes]
    return tuple(int(b"0" + planes[k >> 3].translate(_DIGITS[k & 7]), 2) for k in range(count))


def _word(props, i):
    # the property_bits word of map i, from its pair's property ints
    lo, inc, gu, gd, sgb, gb, unitary = props
    return (
        lo >> i & 1 | (inc >> i & 1) << 1 | (gu >> i & 1) << 2 | (gd >> i & 1) << 3
        | (sgb >> i & 1) << 4 | (gb >> i & 1) << 5 | (unitary >> i & 1) << 6
    )


#: _ORBITS key -> (mask of the representatives with facts, the fact ints:
#: bit i of the f-th is fact f of map i); replaced when it grows
_FACTS: dict = {}


def _orbit_facts(key, s, r, maps, wanted):
    """The fact ints of the `_ORBITS` entry `key`, with those of each map in
    the mask `wanted`, computed (_map_facts) the first time a scan wants it."""
    known, facts = _FACTS.get(key, (0, (0,) * (F_IMAGE_NOT_PERFECT + 1)))
    todo = wanted & ~known
    if todo:
        marks = bin(todo)[:1:-1].ljust(len(maps), "0")
        words = [_map_facts(s, r, cmap) if m == "1" else 0 for m, cmap in zip(marks, maps)]
        planes = [bytes([w >> low & 255 for w in words]) for low in (0, 8, 16)]
        facts = tuple(a | b for a, b in zip(facts, _bit_ints(planes, len(facts))))
        _FACTS[key] = known | todo, facts
    return facts


def _first_violation(need, forbid, check, args, s, r, indices, maps, props):
    """(index, code) of the first map that passes the filter and fails the check,
    or (-1, 0).

    maps[i] has the index indices[i], and `props` holds the maps' property
    ints. A map passes the filter when its word has every flag of `need`
    and none of `forbid` (_holding); `check(*args, s, r, cmap, bits,
    allowed)` then returns a clause code or a bool on the maps that pass,
    in order, with the map's word and its entry `s.allowed[cmap]`.
    """
    if args:
        # bound once, so each map costs a plain call
        check = partial(check, *args)
    allowed = s.allowed
    passing = _holding(props, need, forbid, (1 << len(maps)) - 1)
    while passing:
        low = passing & -passing
        i = low.bit_length() - 1
        cmap = maps[i]
        code = check(s, r, cmap, _word(props, i), allowed[cmap])
        if code:
            return indices[i], code
        passing ^= low
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
    props = _bit_ints([bytes([property_bits(s.n, s, r.n, r, cmap) for cmap in maps])], 7)
    return len(maps), *_first_violation(
        need, forbid, check, args, s, r, range(len(maps)), maps, props
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

    Without `memo` this is _full_scan: the theorem's conclusion is called
    on every map that meets its hypotheses, or on every map if `waive`.
    `memo` is a dict owned by one sweep chunk (one tid, waive and
    allow_top); with it the scan is the theorem's fails formula over the
    property and fact ints (_orbit_facts) of the pair's orbit
    representatives, ANDed with the hypothesis mask unless `waive`. All is
    invariant under relabeling, so the lowest set bit is the pair's first
    failing map, where the conclusion gives the clause code; if it holds
    there, AssertionError. The memo maps each class (s.cls, r.cls) met to
    ((map count, -1, 0), whether every map came out clean). A later pair of
    a clean class, or a count_only pair of any recorded class, returns that
    answer unchecked; a class with a failing map is scanned on every pair,
    so the index is exact for each labeling.
    """
    if memo is None:
        if count_only:
            return count_monotone_maps(ns, s_up, nr, r_up, allow_top), -1, 0
        _, need, conclusion, _ = THEOREMS[tid]
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
    first, code = -1, 0
    if count_only:
        count = count_monotone_maps(ns, s_up, nr, r_up, allow_top)
    else:
        _, need, conclusion, fails = THEOREMS[tid]
        entry = (tuple(s_up), tuple(r_up), allow_top)
        count, indices, maps, props = _map_orbits(*entry)
        passing = _holding(props, 0 if waive else need, 0, (1 << len(maps)) - 1)
        bad = fails(props, _orbit_facts(entry, s_up, r_up, maps, passing)) & passing
        if bad:
            i = (bad & -bad).bit_length() - 1
            cmap = maps[i]
            code = conclusion(s_up, r_up, cmap, _word(props, i), s_up.allowed[cmap])
            first = indices[i]
            if not code:
                raise AssertionError(f"{tid}: the fails formula and the conclusion disagree "
                                     f"on map {first} of the pair {entry}")
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
        count, indices, maps, props = _map_orbits(tuple(s_up), tuple(r_up), allow_top)
        hit, _ = _first_violation(
            need_bits, forbid_bits, _goal_met, goal_args, s_up, r_up, indices, maps, props
        )
    else:
        count, hit, _ = _full_scan(
            need_bits, forbid_bits, _goal_met, goal_args, s_up, r_up, allow_top
        )
    return (count, -1) if hit < 0 else (hit + 1, hit)
