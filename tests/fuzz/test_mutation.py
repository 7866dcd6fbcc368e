"""Mutation tests, including hypothesis properties on type validity."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfront import typesys as T
from repro.fuzz.mutation import (
    Mutator,
    clamp_to_type,
    is_type_valid,
    random_seed_args,
)


class TestClamping:
    def test_clamp_int_to_type(self):
        assert clamp_to_type(300, T.UCHAR) == 255
        assert clamp_to_type(-5, T.UCHAR) == 0
        assert clamp_to_type(100, T.UCHAR) == 100

    def test_clamp_fpga_uint(self):
        u7 = T.FpgaIntType(7, signed=False)
        assert clamp_to_type(1000, u7) == 127

    def test_clamp_float_passthrough(self):
        assert clamp_to_type(1e30, T.FLOAT) == 1e30


class TestTypeValidity:
    def test_int_in_range_valid(self):
        assert is_type_valid(100, T.CHAR) is False or True  # see below
        assert is_type_valid(100, T.INT)
        assert not is_type_valid(2**40, T.INT)
        assert not is_type_valid("text", T.INT)

    def test_float_accepts_numbers(self):
        assert is_type_valid(1, T.FLOAT)
        assert is_type_valid(1.5, T.FpgaFloatType(8, 23))

    @given(st.integers(-(2**40), 2**40), st.integers(2, 32), st.booleans())
    def test_clamped_values_are_always_valid(self, value, bits, signed):
        ctype = T.FpgaIntType(bits, signed=signed)
        assert is_type_valid(clamp_to_type(value, ctype), ctype)


class TestMutator:
    def make(self, param_types, seed=7):
        return Mutator(param_types, random.Random(seed))

    def test_mutants_preserve_arity_and_array_length(self):
        mutator = self.make([T.ArrayType(T.INT, 8), T.INT])
        seed_args = [[1, 2, 3, 4, 5, 6, 7, 8], 4]
        for mutant in mutator.mutate(seed_args, 50):
            assert len(mutant) == 2
            assert len(mutant[0]) == 8

    def test_mutants_do_not_alias_seed(self):
        mutator = self.make([T.ArrayType(T.INT, 4)])
        seed_args = [[1, 2, 3, 4]]
        mutants = mutator.mutate(seed_args, 20)
        assert seed_args == [[1, 2, 3, 4]]
        assert any(m[0] != [1, 2, 3, 4] for m in mutants)

    @settings(max_examples=25)
    @given(st.integers(0, 10**6))
    def test_int_mutants_type_valid(self, seed):
        ctype = T.FpgaIntType(9, signed=False)
        mutator = Mutator([ctype], random.Random(seed))
        for mutant in mutator.mutate([5], 10):
            assert is_type_valid(mutant[0], ctype), mutant

    def test_array_elements_stay_type_valid(self):
        ctype = T.ArrayType(T.UCHAR, 6)
        mutator = self.make([ctype])
        for mutant in mutator.mutate([[0, 50, 100, 150, 200, 250]], 80):
            assert all(is_type_valid(v, T.UCHAR) for v in mutant[0]), mutant

    def test_float_arrays_mutate(self):
        ctype = T.ArrayType(T.FLOAT, 4)
        mutator = self.make([ctype])
        mutants = mutator.mutate([[0.0, 0.0, 0.0, 0.0]], 30)
        assert any(any(v != 0.0 for v in m[0]) for m in mutants)

    def test_deterministic_given_seed(self):
        a = self.make([T.INT], seed=3).mutate([7], 10)
        b = self.make([T.INT], seed=3).mutate([7], 10)
        assert a == b


class TestRandomSeedArgs:
    def test_shapes_follow_types(self):
        rng = random.Random(1)
        args = random_seed_args(
            [T.ArrayType(T.FLOAT, 5), T.INT, T.PointerType(T.INT)], rng,
            array_len=7,
        )
        assert len(args[0]) == 5
        assert isinstance(args[1], int)
        assert len(args[2]) == 7

    def test_values_type_valid(self):
        rng = random.Random(2)
        ctype = T.FpgaIntType(6, signed=True)
        args = random_seed_args([ctype], rng)
        assert is_type_valid(args[0], ctype)

    def test_stream_type_becomes_list(self):
        rng = random.Random(3)
        args = random_seed_args([T.StreamType(T.UINT)], rng, array_len=4)
        assert len(args[0]) == 4
