"""The samplers' rejection branches, driven by scripted draws."""

import numpy as np

from holevo2q.sampling import random_d_invariant_point, random_unit_vector


class ScriptedRng:
    """Stands in for a ``numpy.random.Generator``: each call returns the next
    scripted draw, normal 3-vectors and uniform floats on separate scripts."""

    def __init__(self, normals, uniforms=()):
        self.normals, self.uniforms = list(normals), list(uniforms)

    def standard_normal(self, size):
        draw = np.array(self.normals.pop(0), dtype=float)
        assert draw.shape == (size,)
        return draw

    def random(self):
        return self.uniforms.pop(0)


def test_unit_vector_redraws_a_near_zero_normal_draw():
    rng = ScriptedRng([[1e-13, 0.0, 0.0], [3.0, 0.0, 4.0]])
    assert random_unit_vector(rng).tolist() == [0.6, 0.0, 0.8]
    assert rng.normals == []


def test_d_invariant_point_skips_an_s_near_the_origin():
    # u = 1e-9 puts s at 0.95e-3 from the origin (|s|^2 < 1e-4): the sampler
    # draws s again, and u = 1 with the direction z puts it on the 0.95 sphere.
    rng = ScriptedRng(
        normals=[[1.0, 0.0, 0.0], [0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        uniforms=[1e-9, 1.0],
    )
    m = random_d_invariant_point(rng)
    assert (m.s.tolist(), m.d1s.tolist(), m.d2s.tolist()) == (
        [0.0, 0.0, 0.95], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert rng.normals == [] and rng.uniforms == []
