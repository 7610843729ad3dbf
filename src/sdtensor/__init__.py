"""Exact computations for symmetry classes of tensors over the
semi-dihedral groups of order 8n."""

__version__ = "0.1.0"
