"""
Unit calibration with two bolted-down sensors
=============================================

Mount two sensors a known distance apart on a rigid board and wave it
around.  The reported origin-to-origin distance should be constant;
its mean against the known distance calibrates the stream's unit
scale, and its spread measures positional noise.
"""
import numpy as np

from skelfit import calibrate_pair, solve_joint
from skelfit.synth import generate, rigid_pair_spec

# the emitter stream reports lengths 6 percent long (scale 0.94) and
# carries 7 mm of positional noise; the true separation is 0.565 m
spec = rigid_pair_spec(frames=2000, seed=51, sigma_t=0.007, unit_distortion=0.94)
session, _ = generate(spec)

cal = calibrate_pair(session, 0, 1, known_distance=0.565)
print("mean reported distance:", round(cal.mean_m, 4), "emitted units")
print("std over frames:       ", round(cal.std_m * 1000, 2), "mm")
print("recovered unit scale:  ", round(cal.scale, 4))

# applying the scale brings the stream back to meters
print("calibrated distance:   ", round(cal.mean_m * cal.scale, 4), "m")

# the same pair, run through the joint solver, is classified rigid:
# no relative rotation means no joint to locate, and the minimum-norm
# answer keeps the reported point near both origins
fit = solve_joint(session, 1, 0)
print("pair classification:   ", fit.classification)
