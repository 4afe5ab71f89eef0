"""The value classes: field-wise equality, hashing and repr, immutability,
construction by keyword and by default, and the checks run at construction."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from leibalg import algebra, constructions, extensions, fields, homology, isoclinism, linalg
from leibalg._value import value_class
from leibalg.algebra import (
    AlgebraError,
    AlgebraMorphism,
    LeibnizAlgebra,
    MorphismError,
    Violation,
    quotient_algebra,
    subalgebra,
    validate,
)
from leibalg.constructions import (
    ExtensionMorphism,
    backward_extension,
    diagonal_pullback,
    is_isoclinic_homomorphism,
    product_with_abelian,
    quotient_extension_by_alpha,
)
from leibalg.extensions import (
    ExtensionError,
    canonical_extension,
    commutator_map,
    validate_extension,
)
from leibalg.fields import Field, FieldError
from leibalg.homology import check_sequence_tail, is_stem_cover_candidate
from leibalg.isoclinism import IsoclinismDatum, check_witness, classify, identity_witness
from leibalg.linalg import (
    LinalgError,
    LinearMap,
    Matrix,
    Subspace,
    quotient,
    zero_subspace,
)

from conftest import F3, FQ, nilpotent_n2, paper_g1, paper_g2

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = (fields, linalg, algebra, extensions, constructions, isoclinism, homology)
UNHASHABLE = {"IsoclinismClass", "Classification"}  # their fields hold lists


def value_classes():
    """Every class of the seven modules that declares annotated fields."""
    return {name: obj for mod in MODULES for name, obj in vars(mod).items()
            if isinstance(obj, type) and obj.__module__ == mod.__name__
            and "__annotations__" in obj.__dict__}


def field_names(cls):
    return tuple(cls.__dict__["__annotations__"])


def one_of_each():
    """One instance of every value class, built by the library itself."""
    g = paper_g2(F3)
    e = canonical_extension(g)
    eta = AlgebraMorphism.identity(e.q)
    witness = identity_witness(e)
    com = algebra.lie_commutator_of(g)
    backward = backward_extension(e, eta)
    sequence = check_sequence_tail(e)
    classes = classify([paper_g1(F3), nilpotent_n2(F3)])
    objs = [
        F3, Matrix.identity(F3, 2), com, quotient(com),
        LinearMap.identity(com),
        g, Violation((0, 0, 0), (1, 0, 0)), validate(g), eta,
        quotient_algebra(g, com), subalgebra(g, com),
        e, validate_extension(e), backward.iso, backward,
        diagonal_pullback(e, e, eta), product_with_abelian(e, LeibnizAlgebra.abelian(F3, 1)),
        quotient_extension_by_alpha(e, zero_subspace(F3, g.dim)),
        witness, check_witness(e, e, witness), IsoclinismDatum.of(e),
        is_isoclinic_homomorphism(backward.iso), classes.classes[0], classes,
        sequence.junctions[0], sequence, is_stem_cover_candidate(e),
    ]
    return {type(obj).__name__: obj for obj in objs}


@pytest.fixture(scope="module")
def instances():
    return one_of_each()


def test_every_value_class_is_covered(instances):
    assert len(value_classes()) == 27
    assert set(instances) == set(value_classes())


def test_every_value_class_is_built_by_one_constructor():
    constructors = {cls.__init__.__code__ for cls in value_classes().values()}
    assert len(constructors) == 1

    @value_class
    class Pair:
        a: int
        b: int = 2

        def __init__(self, *args):
            raise AssertionError("value_class replaces a class's own __init__")

    assert Pair(1) == Pair(1, 2) == Pair(b=2, a=1)
    assert Pair.__init__.__code__ in constructors


def test_equal_fields_give_equal_objects(instances):
    for name, obj in instances.items():
        cls = type(obj)
        values = [getattr(obj, n) for n in field_names(cls)]
        positional = cls(*values)
        keyword = cls(**dict(zip(field_names(cls), values)))
        assert positional == obj and keyword == obj and not positional != obj, name
        assert obj != object() and obj != values, name
        assert repr(positional) == repr(obj), name
        assert repr(obj).startswith(f"{name}({field_names(cls)[0]}="), name
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(positional) == hash(obj) == hash(tuple(values)), name


def test_frozen_classes_refuse_assignment_and_deletion(instances):
    for name, obj in instances.items():
        first = field_names(type(obj))[0]
        with pytest.raises(AttributeError):
            setattr(obj, first, None)
        with pytest.raises(AttributeError):
            delattr(obj, first)
        with pytest.raises(AttributeError):
            obj.not_a_field = 1


def test_cached_values_stay_out_of_equality():
    a, b = paper_g2(FQ), paper_g2(FQ)
    assert a._lie_commutator.dim == 1 and "_lie_commutator" in vars(a)
    assert a == b and hash(a) == hash(b)
    e = canonical_extension(a)
    assert commutator_map(e) == commutator_map(canonical_extension(b))
    assert "_commutator_map" in vars(e)
    assert e == canonical_extension(b)


def test_defaults_and_argument_errors():
    assert Field() == Field(None) == Field.rationals()
    assert Subspace(F3, 2, ()) == Subspace(F3, 2, (), ()) == zero_subspace(F3, 2)
    z = ((0,),)
    assert LeibnizAlgebra(F3, 1, (z,)).basis_names == ("e1",)
    assert LeibnizAlgebra(structure=(z,), dim=1, field=F3) == LeibnizAlgebra(F3, 1, (z,), ("e1",))
    assert Matrix(entries=((1,),), ncols=1, nrows=1, field=F3) == Matrix.identity(F3, 1)
    with pytest.raises(TypeError):
        Violation((0, 0, 0))
    with pytest.raises(TypeError):
        Violation((0, 0, 0), (0,), (0,))
    with pytest.raises(TypeError):
        Violation((0, 0, 0), triple=(0, 0, 0))
    with pytest.raises(TypeError):
        Violation((0, 0, 0), (0,), colour="red")


def test_construction_checks_reject_bad_shapes():
    g = paper_g1(F3)
    e = canonical_extension(g)
    with pytest.raises(FieldError, match="not prime"):
        Field(9)
    with pytest.raises(FieldError, match="characteristic 2"):
        Field(2)
    with pytest.raises(LinalgError, match="shape"):
        Matrix(F3, 2, 2, ((1, 0),))
    with pytest.raises(LinalgError, match="shape"):
        Matrix(F3, 1, 2, ((1, 0, 0),))
    with pytest.raises(AlgebraError, match="shape"):
        LeibnizAlgebra(F3, 2, ((),))
    with pytest.raises(AlgebraError, match="basis_names"):
        LeibnizAlgebra(F3, 1, (((0,),),), ("a", "b"))
    with pytest.raises(MorphismError, match="shape"):
        AlgebraMorphism(g, g, Matrix.identity(F3, 1))
    with pytest.raises(MorphismError, match="field"):
        AlgebraMorphism(g, g, Matrix.identity(Field(5), 2))
    with pytest.raises(MorphismError, match="bracket"):
        AlgebraMorphism(g, g, Matrix.from_rows(F3, [(0, 1), (1, 0)]))
    space = linalg.span(F3, 2, Matrix.identity(F3, 2).entries)
    with pytest.raises(LinalgError, match="shape"):
        LinearMap(space, space, Matrix.identity(F3, 1))
    ident = AlgebraMorphism.identity
    with pytest.raises(ExtensionError, match="alpha"):
        ExtensionMorphism(e, e, ident(g), ident(g), ident(e.q))


def test_cli_import_skips_code_generation_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, leibalg.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
