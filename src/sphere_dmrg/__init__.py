"""Exact single-site DMRG: fit an MPS to a dense unit vector by
alternating closest-point projection on the unit sphere."""
