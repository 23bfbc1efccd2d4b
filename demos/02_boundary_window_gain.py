"""The boundary window and penalty knobs, checked against brute force.

The windowed gain rewards a predicted boundary by the posterior mass of
matching boundaries within W gaps, so nearby placements count as
correct. This script sweeps W and gamma on a sequence sampled from a
sticky two-color model, then verifies the decoder against exhaustive
enumeration on the same instance.
"""

from itertools import product

from gainhmm import GainParams, build_hmm, gain_decode, sample_path

model = build_hmm({
    "alphabet": ["x", "y"],
    "colors": [{"id": 0, "name": "A"}, {"id": 1, "name": "B"}],
    "states": [
        {"id": "s_A", "color": 0, "emission": {"x": 0.8, "y": 0.2}},
        {"id": "s_B", "color": 1, "emission": {"x": 0.3, "y": 0.7}},
    ],
    "initial": {"s_A": 0.5, "s_B": 0.5},
    "transitions": {
        "s_A": {"s_A": 0.92, "s_B": 0.08},
        "s_B": {"s_A": 0.08, "s_B": 0.92},
    },
})

states, seq = sample_path(model, 8, seed=20)
truth = model.state_colors[states]
print(f"sampled sequence: {seq!r}")
print(f"true colors:      {truth.tolist()}")

print("\nsweep of W and gamma (decoded colors, objective):")
for window in (0, 1, 2):
    for gamma in (0.1, 0.5, 2.0):
        ann, value = gain_decode(model, seq, GainParams(window, gamma))
        print(f"  W={window} gamma={gamma:3}: {ann.colors.tolist()}  obj={value:+.4f}")
print("growing W lets diffuse boundary mass accumulate; growing gamma")
print("suppresses boundaries that the posterior cannot pay for.")

# Each state has its own color, so the 2^8 state paths are the colorings,
# and with every transition positive each of them is a feasible answer.
obs = model.encode(seq)
trans, emis = model.transitions_dense(), model.emissions
colorings = list(product((0, 1), repeat=len(seq)))
joint = []
for path in colorings:
    p = model.initial[path[0]] * emis[path[0], obs[0]]
    for a, b, o in zip(path, path[1:], obs[1:]):
        p *= trans[a, b] * emis[b, o]
    joint.append(p)
evidence = sum(joint)
posterior = [p / evidence for p in joint]


def boundaries(colors):
    return [(k, a, b) for k, (a, b) in enumerate(zip(colors, colors[1:])) if a != b]


def expected_gain(pred, params, kind="counting"):
    """Sum of gain(pred, truth) * P(truth | seq) over every coloring truth."""
    total = 0.0
    for truth, weight in zip(colorings, posterior):
        gain = params.alpha * sum(p == t for p, t in zip(pred, truth))
        true_boundaries = boundaries(truth)
        for k, a, b in boundaries(pred):
            hits = sum(1 for m, a2, b2 in true_boundaries
                       if (a2, b2) == (a, b) and abs(m - k) <= params.window)
            if kind == "counting":
                gain += (1.0 + params.gamma) * hits - params.gamma
            else:
                gain += 1.0 if hits else -params.gamma
        total += weight * gain
    return total


print("\nbrute-force check on this instance (counting gain):")
params = GainParams(window=2, gamma=0.5)
ann, value = gain_decode(model, seq, params)
best_value = max(expected_gain(c, params) for c in colorings)
print(f"  decoder objective:        {value:.10f}")
print(f"  exhaustive best value:    {best_value:.10f}")
print(f"  decoder output expectation: "
      f"{expected_gain(ann.colors.tolist(), params):.10f}")
assert abs(value - best_value) < 1e-9

print("\ncounting vs indicator gain at W=0 (they coincide exactly):")
p0 = GainParams(window=0, gamma=0.5)
for kind in ("counting", "indicator"):
    v = expected_gain(ann.colors.tolist(), p0, kind)
    print(f"  {kind:9}: {v:.12f}")
