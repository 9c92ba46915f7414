"""Equivariant chain complexes over kG: construction from group presentations
via Fox calculus or from explicit boundary matrices, base change along
epimorphisms, and ordinary Betti numbers via the augmentation specialization.

Boundaries are raw payload maps {key: payload} (GroupRingElem.terms), built
once where data enters and once per ring map (keys and payloads in one pass).
"""

from __future__ import annotations

import functools
import math
import operator
import re

from .coeffs import FieldDescriptor, rank_exact, read_int
from .errors import InputError, UnsupportedCoefficients, ValidationError
from .groupring import GroupDescriptor, GroupRingElem, parse_element

_WORD_TOKEN = re.compile(r"[xX](\d+)|([A-Za-z])")


class FreeWord:
    """A word in a free group: sequence of signed 1-based generator indices."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        self.letters = tuple(letters)
        if any(l == 0 for l in self.letters):
            raise InputError("letters are nonzero signed indices")

    @classmethod
    def parse(cls, text: str, generators: list[str]) -> "FreeWord":
        """Compact letter syntax: lowercase = generator, uppercase = inverse
        ("abAB" = a b a^-1 b^-1); "x3"/"X3" (x or X, then decimal digits read
        by coeffs.read_int) name the third generator for wide alphabets."""
        index = {name: i + 1 for i, name in enumerate(generators)}
        letters = []
        pos = 0
        while pos < len(text):
            mt = _WORD_TOKEN.match(text, pos)
            if mt is None:
                raise InputError(f"bad letter {text[pos]!r} in word {text!r:.60}")
            letter = mt[0][0]
            i = read_int(mt[1], f"generator index {letter}") if mt[1] else index.get(letter.lower())
            if not 1 <= (i or 0) <= len(generators):
                raise InputError(f"no generator {mt[0]!r:.20} in word {text!r:.60}")
            letters.append(i if letter.islower() else -i)
            pos = mt.end()
        return cls(letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"FreeWord{self.letters}"


class Presentation:
    """A finite group presentation <x_1..x_n | r_1..r_m>."""

    def __init__(self, generators: list[str], relators: list[FreeWord]):
        self.generators = list(generators)
        self.relators = list(relators)
        n = len(self.generators)
        for r in self.relators:
            for l in r.letters:
                if not 1 <= abs(l) <= n:
                    raise InputError("relator letter outside declared generators")

    def __repr__(self):
        return f"<{','.join(self.generators)} | {len(self.relators)} relators>"


def fox_derivative(word: FreeWord, i: int):
    """Fox derivative d(word)/d(x_i) as a list of (sign, prefix FreeWord).

    Satisfies dx_j/dx_i = delta_ij, d(x_i^-1)/dx_i = -x_i^-1, and the product
    rule d(uv)/dx_i = du/dx_i + u dv/dx_i.  No simplification is performed.
    """
    if i < 1:
        raise InputError(f"generator index {i} out of range")
    out = []
    for pos, letter in enumerate(word.letters):
        if letter == i:
            out.append((1, FreeWord(word.letters[:pos])))
        elif letter == -i:
            out.append((-1, FreeWord(word.letters[: pos + 1])))
    return out


class Epimorphism:
    """An epimorphism from the presented group onto G, given by generator
    images (exponent vectors for Z^n, residues for Z_m)."""

    def __init__(self, target: GroupDescriptor, images):
        self.target = target
        if target.kind == "free_abelian":
            self.images = [tuple(int(x) for x in img) for img in images]
            for img in self.images:
                if len(img) != target.n:
                    raise InputError("image vector length != target rank")
        else:
            self.images = [int(img) % target.m for img in images]

    def step(self, key, letter: int):
        """The key times the image of the signed generator letter."""
        img = self.images[abs(letter) - 1]
        if self.target.kind == "cyclic":
            return (key + img if letter > 0 else key - img) % self.target.m
        return tuple(map(operator.add if letter > 0 else operator.sub, key, img))

    def word_key(self, word: FreeWord):
        """Image of a word in G, as an exponent key."""
        key = self.target.identity_key()
        for letter in word.letters:
            key = self.step(key, letter)
        return key

    def monomial(self, word: FreeWord, field) -> GroupRingElem:
        return GroupRingElem.monomial(self.target, field, self.word_key(word))

    def fox_columns(self, word: FreeWord) -> list[dict]:
        """The Fox derivatives of word by every generator, pushed to ZG, as
        {key: nonzero int} maps in one walk along the word: x_i adds +1 at the
        key of the prefix before it, x_i^-1 -1 at the key of the prefix after."""
        cols = [{} for _ in self.images]
        key = self.target.identity_key()
        for letter in word.letters:
            col = cols[abs(letter) - 1]
            if letter > 0:
                col[key] = col.get(key, 0) + 1
            key = self.step(key, letter)
            if letter < 0:
                col[key] = col.get(key, 0) - 1
        return [{k: c for k, c in col.items() if c} for col in cols]

    def validate(self, presentation: Presentation):
        if len(self.images) != len(presentation.generators):
            raise ValidationError("one image per generator required")
        for r in presentation.relators:
            if self.word_key(r) != self.target.identity_key():
                raise ValidationError(f"relator {r!r} does not map to the identity")
        if not self.is_surjective():
            raise ValidationError("images do not generate the target group")

    def is_surjective(self) -> bool:
        """Onto Z_m iff gcd(m, images) = 1; onto Z^n iff Euclid down each
        column of the image rows (row operations over Z) leaves pivots +-1."""
        if self.target.kind == "cyclic":
            return math.gcd(self.target.m, *self.images) == 1
        rows = [list(img) for img in self.images]
        for c in range(self.target.n):
            while len(live := sorted((r for r in rows if r[c]), key=lambda r: abs(r[c]))) > 1:
                pivot = live[0]
                for r in live[1:]:
                    q = r[c] // pivot[c]
                    r[c:] = [x - q * y for x, y in zip(r[c:], pivot[c:])]
            if not live or abs(live[0][c]) != 1:
                return False
            rows.remove(live[0])
        return True


class GroupHom:
    """A surjection G -> G' given by images of G's standard generators."""

    def __init__(self, source: GroupDescriptor, target: GroupDescriptor, images):
        self.source = source
        self.target = target
        epi = Epimorphism(target, images)  # the images, normalized
        self.images = epi.images
        if len(self.images) != source.num_generators:
            raise ValidationError("one image per source generator required")
        if source.kind == "cyclic":
            # image of t must have order dividing m
            img = self.images[0]
            if target.kind == "free_abelian":
                if any(x != 0 for x in img):
                    raise ValidationError("no nontrivial map from a finite cyclic group to Z^n")
            elif (source.m * img) % target.m != 0:
                raise ValidationError("map not well-defined on Z_m")
        if not epi.is_surjective():
            raise ValidationError("group map is not surjective")

    def map_key(self, key):
        exps = (key,) if self.source.kind == "cyclic" else key
        if self.target.kind == "cyclic":
            return sum(map(operator.mul, exps, self.images)) % self.target.m
        return tuple(sum(e * img[i] for e, img in zip(exps, self.images))
                     for i in range(self.target.n))


class EquivariantComplex:
    """A finite chain complex of free kG-modules given by boundary matrices.

    raw[q - 1] (q = 1..top) is d_q: dims[q-1] rows of dims[q] raw payload maps,
    canonical as GroupRingElem.terms, which `boundaries` wraps on first use.
    With integral input coefficients the matrices over Z are kept as the
    integral shadow raw_integral (for torsion checks), the very same maps when
    k has characteristic 0 and every payload is an int.  The constructor checks
    shapes only; d o d = 0 and the augmentation of d_1 are checked where new
    data enters (presentation_complex, complex_from_matrices,
    extend_with_cells), and ring maps (base_change, change_field) keep them.
    """

    def __init__(self, field, group, dims, raw, provenance="matrices", raw_integral=None):
        self.field = field
        self.group = group
        self.dims = list(dims)
        self.raw = raw
        self.provenance = provenance
        self.raw_integral = raw_integral
        _check_shapes(self.dims, raw)

    @functools.cached_property
    def boundaries(self):
        return _wrap(self.group, self.field, self.raw)

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def boundary(self, q: int):
        """Boundary matrix in degree q (dims[q-1] x dims[q]); zero-shaped
        outside 1..top, where only d_{top+1} has rows (and no column)."""
        if 1 <= q <= self.top:
            return self.boundaries[q - 1]
        return [[] for _ in range(self.dims[-1])] if q == self.top + 1 else []

    # -- specializations ------------------------------------------------------

    def epsilon_boundary(self, q: int):
        """The augmentation specialization of the boundary matrix: rows of
        payloads of k."""
        return [[e.augmentation() for e in row] for row in self.boundary(q)]

    def epsilon_boundary_int(self, q: int):
        """Integral specialization from the shadow, as plain int matrix."""
        if self.raw_integral is None:
            raise UnsupportedCoefficients("complex has no integral shadow")
        if 1 <= q <= self.top:
            return [[sum(terms.values()) for terms in row] for row in self.raw_integral[q - 1]]
        return [[] for _ in range(self.dims[-1])] if q == self.top + 1 else []

    def is_minimal(self) -> bool:
        """Minimal = every epsilon-specialized boundary vanishes, checked on
        the integral shadow when present (a mod-p accident is not minimality)."""
        return not self.nonminimal_entries()

    def nonminimal_entries(self):
        out = []
        for q in range(1, self.top + 1):
            mat = (self.epsilon_boundary_int(q) if self.raw_integral is not None
                   else self.epsilon_boundary(q))
            for i, row in enumerate(mat):
                for j, x in enumerate(row):
                    if x:
                        out.append((q, i, j, x))
        return out


def _wrap(group, field, mats):
    return [[[GroupRingElem(group, field, terms, canonical=True) for terms in row]
             for row in mat] for mat in mats]


def _check_shapes(dims, mats, ring=None, first=1):
    """Raise unless mats has one dims[q-1] x dims[q] matrix per degree
    1..top over one 0-cell; with ring = (k, G), the matrices of degrees from
    `first` on hold GroupRingElem entries, each checked to be over kG."""
    if not dims or dims[0] != 1:
        raise ValidationError("complex must have a single 0-cell")
    if len(mats) != len(dims) - 1:
        raise ValidationError("need one boundary matrix per degree 1..top")
    for q, mat in enumerate(mats, 1):
        if len(mat) != dims[q - 1] or any(len(row) != dims[q] for row in mat):
            raise ValidationError(f"boundary {q} has wrong shape")
        if ring and q >= first and any((e.field, e.group) != ring for row in mat for e in row):
            raise ValidationError(f"boundary {q} entry over wrong ring")


def _check_composition(ring, group, a, b, q: int):
    """Raise unless the product of d_q = a and d_{q+1} = b over kG vanishes,
    both matrices of raw payload maps over `ring`: products are summed per key
    through the descriptor's payload table."""
    add, mul, zero = ring._add, ring._mul, ring._of_int(0)
    m = group.m
    cols = list(zip(*b))
    for row in a:
        for col in cols:
            acc = {}
            for x, y in zip(row, col):
                for k1, c1 in x.items():
                    for k2, c2 in y.items():
                        key = (k1 + k2) % m if m else tuple(map(operator.add, k1, k2))
                        acc[key] = add(acc.get(key, zero), mul(c1, c2))
            if any(acc.values()):
                raise ValidationError(
                    f"composition d_{q} o d_{q + 1} != 0: not a chain complex"
                )


def _new_complex(field, group, dims, raw, integral, provenance, first=1):
    """Build a complex from new data: the shapes, then d_q o d_{q+1} = 0 for
    q >= first on the integral shadow when there is one (zero over Z is zero
    over every k), then the augmentation of d_1, so that each error keeps its
    precedence."""
    C = EquivariantComplex(field, group, dims, raw, provenance, integral)
    ring, mats = (field, raw) if integral is None else (FieldDescriptor.integers(), integral)
    for q in range(first, len(mats)):
        _check_composition(ring, group, mats[q - 1], mats[q], q)
    zero = field._of_int(0)
    if raw and any(functools.reduce(field._add, terms.values(), zero) for terms in raw[0][0]):
        raise ValidationError("degree-1 boundary entries must augment to 0")
    return C


def presentation_complex(presentation: Presentation, nu: Epimorphism,
                         field: FieldDescriptor) -> EquivariantComplex:
    """The equivariant chain complex of the presentation 2-complex, base
    changed along nu.  d1 column entries are nu(x_i) - 1; d2 entries are Fox
    derivatives pushed to kG.  The {key: int} maps of the Fox walk are the
    integral shadow, and over a field of characteristic 0 the entries too."""
    nu.validate(presentation)
    group = nu.target
    ngens = len(presentation.generators)
    one = group.identity_key()
    d1 = [{} if key == one else {key: 1, one: -1}
          for key in (nu.step(one, i) for i in range(1, ngens + 1))]
    ints = [[d1]] if ngens else []
    if ngens and presentation.relators:
        cols = [nu.fox_columns(r) for r in presentation.relators]
        ints.append([[col[i] for col in cols] for i in range(ngens)])
    dims = [1] + [len(mat[0]) for mat in ints]
    raw = ints if field.characteristic == 0 else _ring_map(ints, coeff=field._of_int)
    return _new_complex(field, group, dims, raw, ints, "presentation")


def complex_from_matrices(field, group, dims, boundaries) -> EquivariantComplex:
    """Complex from explicit boundary matrices over kG, with every composition
    d_q o d_{q+1} checked."""
    _check_shapes(dims, boundaries, (field, group))
    raw = [[[e.terms for e in row] for row in mat] for mat in boundaries]
    return _new_complex(field, group, dims, raw, _integral_shadow(field, raw), "matrices")


def _integral_shadow(field, mats):
    """The raw matrices over Z (mats itself if every payload is an int) when
    every coefficient is an integer, else None; over F_p None if any entry."""
    entries = [terms for mat in mats for row in mat for terms in row]
    coeffs = [c for terms in entries for c in terms.values()]
    if field.characteristic and entries or any(c.denominator != 1 for c in coeffs):
        return None
    return mats if all(type(c) is int for c in coeffs) else _ring_map(mats, coeff=int)


def extend_with_cells(C: EquivariantComplex, degree: int, matrix_rows) -> EquivariantComplex:
    """Attach extra cells in `degree` (= top + 1) with the given boundary
    matrix into degree-1 cells.  Only the new block d_top o d_{top+1} is
    checked: the compositions of C were checked when C was built."""
    if degree != C.top + 1:
        raise ValidationError(
            f"extra cells must extend the top degree ({C.top + 1}), got {degree}"
        )
    if len(matrix_rows) != C.dims[C.top]:
        raise ValidationError(
            f"extra-cell matrix needs {C.dims[C.top]} rows, got {len(matrix_rows)}"
        )
    dims = C.dims + [len(matrix_rows[0]) if matrix_rows else 0]
    _check_shapes(dims, C.raw + [matrix_rows], (C.field, C.group), first=degree)
    block = [[e.terms for e in row] for row in matrix_rows]
    shadow = _integral_shadow(C.field, [block]) if C.raw_integral is not None else None
    integral = None if shadow is None else C.raw_integral + shadow
    return _new_complex(C.field, C.group, dims, C.raw + [block], integral, "hybrid",
                        first=C.top)


def base_change(C: EquivariantComplex, f: GroupHom | None,
                new_field: FieldDescriptor | None = None) -> EquivariantComplex:
    """The complex under the ring map kG -> k'G' of the group surjection f
    (None: G' = G) and the coefficient change k -> k' (None: k' = k), in one
    pass over the raw maps: keys through f summed in k, then payloads into k'.
    The shadow goes through f alone, shared with the entries when they were.
    A ring map carries d o d = 0 along: no composition is checked again."""
    if f is not None and f.source != C.group:
        raise ValidationError("hom source does not match complex group")
    field = new_field if new_field is not None else C.field
    if field != C.field and C.field.kind not in ("Z", "Q"):
        raise UnsupportedCoefficients(f"no coefficient map {C.field} -> {field}")
    if f is None and field == C.field:
        return C
    key = functools.cache(f.map_key) if f is not None else None
    integral = C.raw_integral
    if key and integral is not None:
        integral = _ring_map(integral, key)
    if C.field.characteristic == 0 and C.raw == C.raw_integral:  # int payloads
        raw = integral if field.characteristic == 0 else _ring_map(integral, coeff=field._of_int)
    else:  # an int payload has a denominator too
        coeff = None if field == C.field else field.from_fraction
        raw = _ring_map(C.raw, key, C.field._add, coeff)
    return EquivariantComplex(field, C.group if f is None else f.target, C.dims, raw,
                              provenance=C.provenance, raw_integral=integral)


def change_field(C: EquivariantComplex, new_field: FieldDescriptor) -> EquivariantComplex:
    """Coefficient change (Z -> k, Q -> Q(zeta), ...): base_change with no f."""
    return base_change(C, None, new_field)


def _ring_map(mats, key=None, add=operator.add, coeff=None):
    """The raw matrices under a ring map: each key through `key`, payloads
    meeting at one key summed with `add`, then each payload through `coeff`;
    zero payloads dropped."""
    return [[[_map_terms(terms, key, add, coeff) for terms in row] for row in mat]
            for mat in mats]


def _map_terms(terms, key, add, coeff):
    if key:
        acc = {}
        for k, c in terms.items():
            k = key(k)
            acc[k] = add(acc[k], c) if k in acc else c
        terms = acc
    return {k: x for k, c in terms.items() if (x := coeff(c) if coeff else c)}


def betti_numbers(C: EquivariantComplex) -> list[int]:
    """Ordinary Betti numbers b_q = dim C_q - rank d_q^eps - rank d_{q+1}^eps."""
    if not C.field.is_field:
        raise UnsupportedCoefficients(
            "betti_numbers needs field coefficients; use the modz module for Z"
        )
    ranks = [0] * (C.top + 2)
    for q in range(1, C.top + 1):
        ranks[q] = rank_exact(C.field, C.epsilon_boundary(q))
    return [C.dims[q] - ranks[q] - ranks[q + 1] for q in range(C.top + 1)]


# ---------------------------------------------------------------------------
# JSON input documents
# ---------------------------------------------------------------------------


def parse_document(doc: dict) -> EquivariantComplex:
    """Build a complex from the JSON input schema.

    Exactly one of "presentation"/"matrices"; "extra_cells" only with
    "presentation".  Every composition d_q o d_{q+1} of the result is checked
    once: by presentation_complex or complex_from_matrices, and for each
    "extra_cells" block by extend_with_cells.
    """
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    try:
        field = FieldDescriptor.parse(doc["field"])
        group = GroupDescriptor.parse(doc["group"])
    except KeyError as missing:
        raise InputError(f"missing required key {missing}") from None
    has_pres = "presentation" in doc
    has_mats = "matrices" in doc
    if has_pres == has_mats:
        raise InputError('exactly one of "presentation"/"matrices" is required')
    if "extra_cells" in doc and not has_pres:
        raise InputError('"extra_cells" only allowed with "presentation"')

    if has_pres:
        pres = doc["presentation"]
        if not isinstance(pres, dict):
            raise InputError(f'"presentation" must be an object, got {pres!r}')
        gens = _list_of(pres.get("generators", []), str, '"generators" must be a list of strings')
        if not gens:
            raise InputError("presentation needs at least one generator")
        for k, g in enumerate(gens, 1):
            if g in gens[:k - 1] or not (len(g) == 1 and "a" <= g <= "z" or g == f"x{k}"):
                raise InputError(f"generator {k} is named {g!r:.20}: names must be distinct, "
                                 f"each one lowercase letter or x{k}, so that words can use it")
        relators = _list_of(pres.get("relators", []), str, '"relators" must be a list of strings')
        presentation = Presentation(gens, [FreeWord.parse(w, gens) for w in relators])
        nu_spec = pres.get("nu")
        if not isinstance(nu_spec, dict):
            raise InputError(f'presentation requires "nu" generator images, got {nu_spec!r}')
        if stray := sorted(set(nu_spec) - set(gens)):
            raise InputError(f"nu names no generator {stray[0]!r:.20}")
        images = []
        for g in gens:
            if g not in nu_spec:
                raise InputError(f"nu missing image for generator {g!r}")
            img = nu_spec[g]
            vec = list(img) if isinstance(img, (list, tuple)) else [img]
            if not vec or not all(type(x) is int for x in vec):
                raise InputError(
                    f"nu image of {g!r} must be an integer or a list of integers, got {img!r}"
                )
            if group.kind == "cyclic" and len(vec) != 1:
                raise InputError(f"nu image of {g!r} in {group} must be one integer, got {img!r}")
            images.append(vec if group.kind == "free_abelian" else vec[0])
        nu = Epimorphism(group, images)
        C = presentation_complex(presentation, nu, field)
        for cell_spec in _list_of(doc.get("extra_cells", []), dict,
                                  '"extra_cells" must be a list of objects'):
            try:
                degree, matrix = cell_spec["degree"], cell_spec["matrix"]
            except KeyError:
                raise InputError('each "extra_cells" entry needs "degree" and "matrix"') from None
            C = extend_with_cells(C, degree, _parse_matrix(matrix, group, field))
        return C

    try:
        dims, mats = doc["matrices"]["dims"], doc["matrices"]["boundaries"]
    except (KeyError, TypeError):
        raise InputError('"matrices" needs "dims" and "boundaries"') from None
    if not isinstance(dims, list) or not all(type(x) is int for x in dims):
        raise InputError(f'"dims" must be a list of integers, got {dims!r}')
    if not isinstance(mats, list):
        raise InputError(f'"boundaries" must be a list of matrices, got {mats!r}')
    boundaries = [_parse_matrix(mat, group, field) for mat in mats]
    return complex_from_matrices(field, group, dims, boundaries)


def _list_of(value, kind, what: str) -> list:
    """value, if it is a JSON list of kind; else InputError(what)."""
    if not isinstance(value, list) or not all(isinstance(x, kind) for x in value):
        raise InputError(f"{what}, got {value!r}")
    return value


def _parse_matrix(matrix, group: GroupDescriptor, field: FieldDescriptor):
    what = "each matrix row must be a list of entry strings"
    return [[parse_element(s, group, field) for s in _list_of(row, str, what)]
            for row in _list_of(matrix, list, what)]
