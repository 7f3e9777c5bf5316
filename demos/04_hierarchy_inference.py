"""
Inferring which body connects to which
======================================

Nothing in the data says the forearm hangs off the upper arm. Solving
every body pair gives a table of fit errors: genuinely connected
pairs fit well, unconnected pairs fit badly, and the minimum spanning
tree of that table is the skeleton.
"""
import numpy as np

from skelfit import build_fit_matrix, fit_skeleton, infer_hierarchy, limb_length
from skelfit.synth import generate, linkage_spec

# head, torso, both upper arms and forearms, driven with realistic
# sensor noise (7 mm position, 0.01 rad orientation)
spec = linkage_spec(frames=1500, seed=31)
session, truth = generate(spec)
names = [session.label_of(i) for i in range(session.body_count)]

fits = build_fit_matrix(session)
print("pairwise fit errors (mm):")
header = "            " + "".join(f"{n[:10]:>12}" for n in names)
print(header)
for i in range(6):
    row = "".join(
        "         -  " if i == j else f"{fits.epsilon[i, j] * 1000:>12.2f}"
        for j in range(6)
    )
    print(f"{names[i][:10]:>12}{row}")

result = infer_hierarchy(fits)
print("\ninferred tree edges:", result.tree_edges)
print("parent map:", result.parent)

model = fit_skeleton(session, hierarchy=result.parent)
print("\nlimb lengths from the fitted joints:")
for a, b, label in ((1, 2, "neck to left shoulder"), (2, 3, "between shoulders"), (2, 4, "left upper arm")):
    print(f"  {label}: {limb_length(model, a, b) * 100:.1f} cm")
