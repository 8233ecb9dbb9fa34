"""Moving-frame geometry of a helix, and why its propagation is exact.

A helix has constant speed, curvature, and torsion, so its moving frame
rotates at a fixed rate. Propagating the frame with the closed-form rotation
update therefore reproduces the trajectory to machine precision, which is
what makes the frame-based predictor powerful on curving paths.

Each concept has one entry point: truth_arrays gives the exact trajectory
and its derivatives as arrays with one row per step, frenet_model the frame
(the columns of R) with the speed, curvature and torsion, and fs_predict the
propagation.
"""

import numpy as np

from aisepred import frenet_model, fs_predict, gamma0, truth_arrays

T_S = 0.01
horizon = 500

P, V, A, J = truth_arrays("helical", horizon, T_S)
model = frenet_model(V[0], A[0], J[0])

print("frame at t = 0 (columns: tangent, normal, binormal):")
print(np.array_str(model.R, precision=6, suppress_small=True))
print(f"\nspeed      u        = {model.u:.6f}  (sqrt(101) = {np.sqrt(101):.6f})")
print(f"curvature  kappa    = {model.kappa_t:.6f}  (5/101    = {5 / 101:.6f})")
print(f"torsion    tau      = {model.tau_t:.6f}  (-0.5/101 = {-0.5 / 101:.6f})")
print(f"turn rates u*kappa  = {model.u * model.kappa_t:.6f} rad/s, "
      f"u*tau = {model.u * model.tau_t:.6f} rad/s")

R_step = gamma0(model.omega * T_S)
print(f"\none-step rotation is orthonormal to "
      f"{np.max(np.abs(R_step.T @ R_step - np.eye(3))):.1e}")

predicted = fs_predict(P[0], model, horizon, T_S)
errors = [np.linalg.norm(predicted[l - 1] - P[l]) for l in (1, 100, 500)]
print(f"\npropagation error vs the true helix:")
for l, err in zip((1, 100, 500), errors):
    print(f"  {l:4d} steps ({l * T_S:5.2f} s): {err:.2e} m")
