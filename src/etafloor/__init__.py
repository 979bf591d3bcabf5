"""Dirichlet eta engines, executable propositions, and the floor-hypothesis scanner."""
