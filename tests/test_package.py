"""Package guards: the public names resolve, the package re-exports
exactly its modules' public lists, the records share one constructor
unless they validate, the source imports only the standard library and
uses every name it imports, the verifier imports only its trust base,
importing the console frontend loads none of the heavy introspection
modules, and the test oracles import nothing from the package."""

import ast
import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import flowcomm
from flowcomm import commensurability, conjugacy, errors, linalg, models, serialize, verify
from flowcomm import (
    ChainCertificate,
    ChainLink,
    CommensurabilityCertificate,
    CommensurabilityVerdict,
    EquivalenceVerdict,
    GeodesicCommonCover,
    GeodesicOrbifold,
    HyperbolicMatrix,
    Lattice2,
    Mat2,
    RLWord,
    Suspension,
    almost_commensurability_chain,
    are_commensurable,
    are_equivalent,
    find_intertwiner,
    genus_model_matrix,
    hnf,
    intertwiner_lattice,
    orbifold_common_cover,
    orbifold_model_matrix,
    reduction_cycle,
)

INIT = Path(flowcomm.__file__)
SOURCES = sorted(INIT.parent.glob("*.py"))
# the modules the package re-exports, in the order it lists their names
REEXPORTED = (errors, linalg, conjugacy, commensurability, models, verify)
HELPERS = Path(__file__).parent / "helpers.py"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_all_names_resolve():
    missing = [name for name in flowcomm.__all__ if not hasattr(flowcomm, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    """`from flowcomm import *` binds exactly the names of flowcomm.__all__,
    each the package's own object."""
    ns = {}
    exec("from flowcomm import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(flowcomm.__all__)
    assert [name for name in ns if ns[name] is not getattr(flowcomm, name)] == []


def module_name(path):
    return "flowcomm" if path == INIT else f"flowcomm.{path.stem}"


def star_imports(tree):
    return [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
    ]


def test_reexports_are_the_module_lists():
    """flowcomm star-imports each module of REEXPORTED once, in order,
    and otherwise imports only those modules, never a single public
    name. Its __all__ is __version__ followed by those modules' __all__,
    with no name twice, and each name is the module's own object.
    __init__ spells no public name but __version__, and no other module
    star-imports."""
    tree = parse(INIT)
    names = [module.__name__.removeprefix("flowcomm.") for module in REEXPORTED]
    assert star_imports(tree) == names
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node.names[0].name != "*":
            assert (node.level, node.module) == (1, None)
            assert {alias.name for alias in node.names} <= set(names)
    listed = ["__version__", *(name for module in REEXPORTED for name in module.__all__)]
    assert flowcomm.__all__ == listed and len(set(listed)) == len(listed)
    assert [
        name
        for module in REEXPORTED
        for name in module.__all__
        if getattr(flowcomm, name) is not getattr(module, name)
    ] == []
    spelled = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    spelled |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert spelled & set(listed) == {"__version__"}
    assert [path.name for path in SOURCES if path != INIT and star_imports(parse(path))] == []


SHARED_CONSTRUCTOR = (
    Lattice2,
    CommensurabilityCertificate,
    CommensurabilityVerdict,
    EquivalenceVerdict,
    GeodesicCommonCover,
    ChainLink,
)


def records(cls=linalg._Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from records(sub)


def test_only_validating_records_write_a_constructor():
    own = {cls.__name__ for cls in records() if "__init__" in vars(cls)}
    assert own == {"RLWord", "Suspension", "GeodesicOrbifold", "ChainCertificate"}
    assert {cls for cls in records() if "__init__" not in vars(cls)} == set(SHARED_CONSTRUCTOR)


def test_records_store_only_their_fields():
    """Each record's slots are its fields: nothing, such as a memoised
    Euler characteristic, is stored beside them."""
    assert [cls for cls in records() if vars(cls)["__slots__"] != cls._fields] == []
    assert GeodesicOrbifold.__slots__ == GeodesicOrbifold._fields == ("genus", "cone_orders")


@pytest.mark.parametrize("cls", SHARED_CONSTRUCTOR, ids=lambda cls: cls.__name__)
def test_shared_constructor_contract(cls):
    """Every field by position in _fields order, by name, or the first
    ones by position and the rest by name, gives one record; a missing,
    unknown, repeated or surplus field is a TypeError that names the
    field or the count."""
    names = cls._fields
    values = [f"<{name}>" for name in names]
    built = [
        cls(*values),
        cls(**dict(zip(names, values))),
        cls(*values[:2], **dict(zip(names[2:], values[2:]))),
    ]
    for record in built:
        assert [getattr(record, name) for name in names] == values
    if cls.__eq__ is not object.__eq__:  # the verdicts compare by identity
        assert built[0] == built[1] == built[2]
    errors = [
        ((values[:-1], {}), f"{cls.__name__}() missing field {names[-1]!r}"),
        (((), dict(zip(names[1:], values[1:]))), f"missing field {names[0]!r}"),
        ((values, {"colour": 1}), "got unknown field 'colour'"),
        ((values, {names[1]: 1}), f"got repeated field {names[1]!r}"),
        ((values + [1], {}), f"takes {len(names)} fields, got {len(names) + 1}"),
    ]
    for (args, kwargs), message in errors:
        with pytest.raises(TypeError) as caught:
            cls(*args, **kwargs)
        assert message in str(caught.value)


def test_record_equality_hash_and_repr():
    """One instance of each record that takes the shared constructor, and
    RLWord: the repr, == and hash they had with written-out constructors."""
    verdict = are_commensurable(Mat2(2, 1, 1, 1), Mat2(0, 1, -1, 7))
    cert = verdict.certificate
    assert repr(cert) == (
        "CommensurabilityCertificate(base_a=HyperbolicMatrix(2, 1, 1, 1),"
        " base_b=HyperbolicMatrix(0, 1, -1, 7), power_a=2, power_b=1,"
        " intertwiner=Mat2(1, 1, -2, 1), intertwiner_det=3,"
        " sublattice=Lattice2(a=3, b=1, d=1), stabilization=1,"
        " index_over_a=6, index_over_b=1)"
    )
    copy = CommensurabilityCertificate(*(getattr(cert, name) for name in cert._fields))
    assert copy == cert and cert.__hash__ is None
    assert repr(verdict).startswith(
        "CommensurabilityVerdict(commensurable=True, minimal_exponents=(2, 1),"
        " squarefree_a=5, squarefree_b=5, certificate=CommensurabilityCertificate("
    )
    equiv = are_equivalent(HyperbolicMatrix(2, 1, 1, 1), HyperbolicMatrix(3, 1, 2, 1))
    assert repr(equiv) == (
        "EquivalenceVerdict(equivalent=False, conjugator=None,"
        " canonical_a=RLWord(pairs=((1, 1),)), canonical_b=RLWord(pairs=((1, 2),)))"
    )
    for record in (verdict, equiv):  # compared and hashed by identity
        copy = type(record)(*(getattr(record, name) for name in record._fields))
        assert copy != record and hash(record) == object.__hash__(record)
    word = equiv.canonical_b
    assert word == type(word)(((1, 2),)) and hash(word) == hash(((1, 2),))
    cover = orbifold_common_cover(GeodesicOrbifold(2), GeodesicOrbifold(0, (2, 3, 7)))
    assert repr(cover) == (
        "GeodesicCommonCover(cover_genus=2, degree_source=1, degree_target=84,"
        " euler_source=Fraction(-2, 1), euler_target=Fraction(-1, 42),"
        " euler_cover=Fraction(-2, 1))"
    )
    link = almost_commensurability_chain(GeodesicOrbifold(2), Suspension(genus_model_matrix(2))).links[0]
    assert repr(link) == (
        "ChainLink(kind='almost-equivalence', source=GeodesicOrbifold(genus=2, cone_orders=()),"
        " target=Suspension(monodromy=HyperbolicMatrix(7, 12, 4, 7)), evidence='GHYS_HASHIGUCHI')"
    )
    for record in (cover, link):  # compared and hashed field by field
        fields = tuple(getattr(record, name) for name in record._fields)
        assert type(record)(*fields) == record and hash(record) == hash(fields)


def test_matrix_and_lattice_reprs_evaluate_back():
    """Mat2, HyperbolicMatrix and Lattice2 reprs name the record's own
    class and evaluate back to an equal record of that class."""
    for record in (Mat2(1, -2, 3, 4), HyperbolicMatrix(7, 12, 4, 7), Lattice2(3, 1, 1)):
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        copy = eval(text, vars(flowcomm))
        assert type(copy) is type(record) and copy == record


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Mat2(2, 0, 0, 2).inverse(), "determinant 4 is not +-1"),
        (lambda: hnf(Mat2(2, 4, 1, 2)), "Mat2(2, 4, 1, 2) has determinant 0"),
        (lambda: intertwiner_lattice(Mat2(2, 1, 1, 1), Mat2(5, 2, 2, 1)), "traces 3 and 6 differ"),
        (lambda: intertwiner_lattice(Mat2(2, 1, 1, 1), Mat2(1, 2, 1, 2)), "determinants 1 and 0 differ"),
        # outside the precondition: t^2 - 4 det = (a.a - a.d)^2 is a square
        (lambda: intertwiner_lattice(Mat2(2, 1, 0, 1), Mat2(1, 0, 1, 2)), "a has lower-left entry 0"),
        (lambda: reduction_cycle(1, 0, -1), "discriminant 4 is not a positive non-square"),
        (lambda: reduction_cycle(0, 1, 1), "discriminant 1 is not a positive non-square"),
        (lambda: reduction_cycle(1, 0, 1), "discriminant -4 is not a positive non-square"),
        # t^2 - 4 det = 9 is a square, so det P is a form with a zero
        (
            lambda: find_intertwiner(Mat2(1, 2, 1, 0), Mat2(1, 2, 1, 0)),
            "discriminant 9 is not a positive non-square",
        ),
        (lambda: genus_model_matrix(1), "genus must be >= 2, got 1"),
        (lambda: ChainCertificate((), ()), "a chain has two endpoints, got 0"),
    ],
    ids=[
        "inverse",
        "hnf",
        "intertwiner_traces",
        "intertwiner_determinants",
        "intertwiner_lower_left",
        "reduction_square",
        "reduction_leading_zero",
        "reduction_negative",
        "find_intertwiner_square",
        "genus",
        "chain_endpoints",
    ],
)
def test_wrong_argument_raises_plain_value_error(call, message):
    """A wrong argument to a lower-level function raises ValueError
    itself, not a FlowcommError, and the message names the argument."""
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value).startswith(message)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int/str digit limit disabled")
def test_messages_name_an_unprintable_integer_by_its_size():
    """A determinant, trace, discriminant, genus, cone order or word
    exponent that str() would refuse is named by its sign and bit size,
    so that raising the error cannot itself raise."""
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    det_bits = f"an integer of {(big * big).bit_length()} bits"
    trace_bits = f"an integer of {big.bit_length()} bits"
    negative_bits = f"a negative integer of {big.bit_length()} bits"
    negative_det_bits = f"a negative integer of {(big * big - 1).bit_length()} bits"
    with pytest.raises(ValueError, match=f"^determinant {det_bits} is not"):
        Mat2(big, 0, 0, big).inverse()
    with pytest.raises(ValueError, match=f"^traces {trace_bits} and 3 differ"):
        intertwiner_lattice(Mat2(big, 1, 1, 0), Mat2(2, 1, 1, 1))
    with pytest.raises(flowcomm.NotHyperbolic, match=f"^determinant is {det_bits}, need 1"):
        HyperbolicMatrix(big, 0, 0, big)
    with pytest.raises(flowcomm.NotHyperbolic, match=f"^determinant is {negative_det_bits}, need"):
        HyperbolicMatrix(1, big, big, 1)
    with pytest.raises(flowcomm.NotHyperbolic, match=f"^trace {negative_bits} is not"):
        HyperbolicMatrix(-big, 1, -1, 0)
    with pytest.raises(ValueError, match=rf"^signature \(0; 2, 2, {trace_bits}\) has chi >= 0"):
        GeodesicOrbifold(0, (2, 2, big))
    with pytest.raises(ValueError, match=f"^genus must be >= 0, got {negative_bits}$"):
        GeodesicOrbifold(-big)
    with pytest.raises(ValueError, match=f"^cone orders must be >= 2, got {negative_bits}$"):
        GeodesicOrbifold(0, (-big, 3, 7))
    with pytest.raises(ValueError, match=rf"^exponents must be >= 1, got \({negative_bits}, 1\)$"):
        RLWord([(-big, 1)])
    with pytest.raises(ValueError, match=rf"^exponents must be >= 1, got \(0, {trace_bits}\)$"):
        RLWord([(0, big)])
    with pytest.raises(ValueError, match=f"^genus must be >= 2, got {negative_bits}$"):
        genus_model_matrix(-big)
    with pytest.raises(flowcomm.NotHyperbolic, match=f"^trace {negative_bits} is not > 2$"):
        orbifold_model_matrix(-big)
    with pytest.raises(ValueError, match=f"^determinants -1 and {negative_bits} differ$"):
        intertwiner_lattice(Mat2(big, 1, 1, 0), Mat2(big, big, 1, 0))
    disc_bits = f"an integer of {(4 * big * big).bit_length()} bits"
    with pytest.raises(ValueError, match=f"^discriminant {disc_bits} is not a positive"):
        reduction_cycle(1, 0, -big * big)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int/str digit limit disabled")
def test_reprs_name_an_unprintable_integer_by_its_size():
    """A repr, or the hnf message that holds one, gives an integer that
    str() would refuse by its bit size, alone, in a tuple or in a
    Fraction; every other value keeps its repr."""
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    bits = f"an integer of {big.bit_length()} bits"
    assert repr(Mat2(big, 1, 1, 1)) == f"Mat2({bits}, 1, 1, 1)"
    assert repr(RLWord(((big, 1),))) == f"RLWord(pairs=(({bits}, 1),))"
    assert str(RLWord(((big, 1), (2, big)))) == f"R^{bits} L^1 R^2 L^{bits}"
    with pytest.raises(ValueError) as caught:
        hnf(Mat2(big, big, 1, 1))
    assert str(caught.value) == f"Mat2({bits}, {bits}, 1, 1) has determinant 0"
    assert repr(GeodesicOrbifold(0, (2, 3, big))) == (
        f"GeodesicOrbifold(genus=0, cone_orders=(2, 3, {bits}))"
    )
    cover = GeodesicCommonCover(2, 1, big, Fraction(-1, big), Fraction(big, 3), Fraction(-2))
    assert repr(cover) == (
        f"GeodesicCommonCover(cover_genus=2, degree_source=1, degree_target={bits},"
        f" euler_source=Fraction(-1, {bits}), euler_target=Fraction({bits}, 3),"
        " euler_cover=Fraction(-2, 1))"
    )
    cert = are_commensurable(Mat2(2, 1, 1, 1), Mat2(0, 1, -1, 7)).certificate
    cert.power_a = cert.index_over_b = big
    assert repr(cert) == (
        "CommensurabilityCertificate(base_a=HyperbolicMatrix(2, 1, 1, 1),"
        f" base_b=HyperbolicMatrix(0, 1, -1, 7), power_a={bits}, power_b=1,"
        " intertwiner=Mat2(1, 1, -2, 1), intertwiner_det=3,"
        " sublattice=Lattice2(a=3, b=1, d=1), stabilization=1,"
        f" index_over_a=6, index_over_b={bits})"
    )


def test_removed_names_stay_gone():
    """No matrix power, operator spelling, lattice membership test,
    lattice image, stored index or basis, negation, second matrix repr,
    folded exception, general kernel reduction, single-kind document
    decoder, R or L constant, flat word exponent tuple, chi of a bare
    signature, short certificate repr or write-only field table is
    offered, and no helper is kept away from its only caller; A * A and
    A ** 2 are TypeErrors."""
    removed = [
        "mat_pow", "InvalidGenus", "SingularBasis", "NotUnimodular", "TraceMismatch",
        "lattice_image", "R", "L", "orbifold_euler_characteristic",
    ]
    assert [name for name in removed if hasattr(flowcomm, name)] == []
    assert [name for name in removed if name in flowcomm.__all__] == []
    assert not hasattr(linalg, "lattice_image")
    assert not hasattr(conjugacy, "R") and not hasattr(conjugacy, "L")
    # an RLWord is its pairs, with the shared record repr
    assert not hasattr(RLWord, "exponents") and "__repr__" not in vars(RLWord)
    # the general 4x4 column reduction lives on only as a test oracle
    assert not hasattr(linalg, "_column_kernel")
    assert not hasattr(Mat2, "__pow__") and not hasattr(Mat2, "__mul__")
    assert not hasattr(Lattice2, "contains") and not hasattr(Lattice2, "basis")
    assert not hasattr(Lattice2(3, 1, 1), "index")
    assert not hasattr(Mat2, "__neg__")
    assert "__repr__" not in vars(HyperbolicMatrix)
    assert not hasattr(Suspension, "euler_characteristic")
    # a signature is checked, and its chi summed, by GeodesicOrbifold alone
    assert not hasattr(models, "orbifold_euler_characteristic")
    assert not hasattr(models, "_signature")
    # decode_document reads every kind of document
    assert not hasattr(serialize, "decode_certificate") and not hasattr(serialize, "decode_chain")
    # the certificate takes the shared record repr, which shows every field
    assert "__repr__" not in vars(CommensurabilityCertificate)
    # a field table only where it both writes and reads its record
    for name in ("_VERDICT_FIELDS", "_or_none", "_LINK_FIELDS"):
        assert not hasattr(serialize, name), name
    # each helper lives beside its only caller
    assert not hasattr(serialize, "_check_digit_limit")
    assert not hasattr(conjugacy, "_least_exponents")
    a = Mat2(2, 1, 1, 1)
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(TypeError):
        a ** 2


def test_private_names_crossing_modules():
    """The private names one module imports from another: the shared
    record base and integer text, the square-class and unit arithmetic
    that commensurability, models and verify share with conjugacy, the
    input-size pair that verify shares with commensurability, and the
    designated matrices that chain's digit-limit gate and verify ask
    about. Any other private helper lives beside its only caller."""
    crossing = set()
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing |= {
                    f"{path.stem} <- {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                }
    assert crossing == {
        "cli <- models._designated",
        "commensurability <- conjugacy._block",
        "commensurability <- conjugacy._shared_units",
        "commensurability <- conjugacy._unit_divmod",
        "commensurability <- linalg._Record",
        "commensurability <- linalg._int_text",
        "conjugacy <- linalg._Record",
        "conjugacy <- linalg._int_text",
        "models <- conjugacy._shared_units",
        "models <- linalg._Record",
        "models <- linalg._int_text",
        "verify <- commensurability._input_size_pair",
        "verify <- conjugacy._shared_units",
        "verify <- conjugacy._unit_divmod",
        "verify <- models._designated",
    }


# the verifier's trust base: every name verify.py imports
VERIFY_IMPORTS = {
    ".commensurability.CommensurabilityCertificate",
    ".commensurability._input_size_pair",
    ".conjugacy._shared_units",
    ".conjugacy._unit_divmod",
    ".errors.NotHyperbolic",
    ".linalg.HyperbolicMatrix",
    ".linalg.mat_mul",
    ".models.ALMOST_EQUIVALENCE",
    ".models.COMMENSURABILITY",
    ".models.GeodesicCommonCover",
    ".models.GeodesicOrbifold",
    ".models.Suspension",
    ".models._designated",
}
# the search that writes the documents verify.py checks
SEARCH_NAMES = (
    "reduction_cycle", "rl_word", "_least_rotation", "evaluate_word", "intertwiner_lattice",
    "find_intertwiner", "are_commensurable", "_least_exponents", "are_equivalent",
    "almost_commensurability_chain", "orbifold_common_cover", "_genus_step",
)


def derive_method(module, record):
    """The syntax tree of record.derive, read from module's source."""
    for cls in parse(Path(module.__file__)).body:
        if isinstance(cls, ast.ClassDef) and cls.name == record:
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "derive":
                    return node
    raise AssertionError(f"no {record}.derive in {module.__name__}")


def test_verifier_imports_only_its_trust_base():
    """verify.py imports exactly the names of its trust base, none
    renamed, and neither it nor the two derive methods it calls spell
    any of the search functions, so no verdict of the verifier can rest
    on the search it checks."""
    tree = parse(Path(verify.__file__))
    imported, spelled = set(), set()
    derives = (
        derive_method(commensurability, "CommensurabilityCertificate"),
        derive_method(models, "GeodesicCommonCover"),
    )
    for node in (node for root in (tree, *derives) for node in ast.walk(root)):
        if isinstance(node, ast.Import):
            imported |= {f"import {alias.name} as {alias.asname}" for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {
                f"{'.' * node.level}{node.module}.{alias.name}"
                + (f" as {alias.asname}" if alias.asname else "")
                for alias in node.names
            }
            spelled |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            spelled.add(node.id)
        elif isinstance(node, ast.Attribute):
            spelled.add(node.attr)
    assert imported == VERIFY_IMPORTS
    assert spelled & set(SEARCH_NAMES) == set()


def test_derive_rebuilds_every_written_record():
    """Every certificate of the reference-agreement corpus, and every
    certificate and cover of the chains between the general corpus's
    models, equals derive of its primary fields: the writers build
    through derive, so verify's derived values are the writers' own."""
    from test_commensurability import TestReferenceAgreement
    from test_models import GENERAL_CORPUS

    def primary(cert):
        return cert.base_a, cert.base_b, cert.power_a, cert.power_b, cert.intertwiner

    certificates = list(TestReferenceAgreement.corpus())
    covers = []
    for m1 in GENERAL_CORPUS:
        for m2 in GENERAL_CORPUS:
            for link in almost_commensurability_chain(m1, m2).links:
                if isinstance(link.evidence, CommensurabilityCertificate):
                    certificates.append(link.evidence)
                elif isinstance(link.evidence, GeodesicCommonCover):
                    covers.append(link)
    for cert in certificates:
        assert cert == CommensurabilityCertificate.derive(*primary(cert)), cert
    for link in covers:
        cover = link.evidence
        chis = link.source.euler_characteristic(), link.target.euler_characteristic()
        assert cover == GeodesicCommonCover.derive(cover.cover_genus, *chis), link
        assert type(cover.degree_source) is type(cover.degree_target) is int
    assert len(certificates) > 2000 and len(covers) > 1500


def rejections(path):
    """The clause of every (False, "<clause>") tuple in a source file."""
    return {
        node.elts[1].value
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value is False
        and isinstance(node.elts[1], ast.Constant)
        and isinstance(node.elts[1].value, str)
    }


def test_verifier_clauses_live_in_verify():
    """Every (False, clause) verdict is formed in verify.py, and no other
    module spells a clause unless it is also a record's field name (as
    cover_genus names a field and the clause that checks it)."""
    clauses = rejections(Path(verify.__file__))
    assert {"intertwining_identity", "cover_cone_points", "link_kind"} <= clauses
    fields = {name for cls in records() for name in cls._fields}
    for path in SOURCES:
        if path.stem == "verify":
            continue
        assert rejections(path) == set(), path.name
        constants = {
            node.value for node in ast.walk(parse(path)) if isinstance(node, ast.Constant)
        }
        assert constants & clauses <= fields, path.name


def test_imports_are_relative_or_stdlib():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                f"{path.name}: {root}"
                for root in roots
                if root not in sys.stdlib_module_names
            ]
    assert foreign == []


# loaded by dataclasses, and costly at every console call's start-up
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_loads_no_heavy_module():
    """In a fresh interpreter without site (whose .pth files may import
    anything), import flowcomm.cli loads none of HEAVY_MODULES. -B: -I
    drops PYTHONDONTWRITEBYTECODE, and the test writes no bytecode."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import flowcomm.cli; "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    root = str(Path(flowcomm.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, root],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_helpers_import_nothing_from_flowcomm():
    modules = []
    for node in ast.walk(parse(HELPERS)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert [m for m in modules if m.split(".")[0] == "flowcomm"] == []


def test_every_imported_name_is_used():
    """Every imported name is read or listed in __all__. A non-literal
    __all__ is read from the imported module, and a star import counts
    as used only when its module's __all__ is spliced into it."""
    unused = []
    for path in SOURCES:
        tree = parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        spliced = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                try:
                    used |= set(ast.literal_eval(node.value))
                except ValueError:
                    used |= set(importlib.import_module(module_name(path)).__all__)
                    spliced |= {
                        part.value.value.id
                        for part in ast.walk(node.value)
                        if isinstance(part, ast.Starred)
                        and isinstance(part.value, ast.Attribute)
                        and part.value.attr == "__all__"
                        and isinstance(part.value.value, ast.Name)
                    }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        if node.module not in spliced:
                            unused.append(f"{path.name}: {node.module}.*")
                        continue
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
