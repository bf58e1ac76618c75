"""Monte Carlo tracking benchmark for phdfuse (see README.md)."""
