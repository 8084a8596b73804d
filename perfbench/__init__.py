"""Layered benchmark of the optical stochastic-computing reproduction (see NOTES.md)."""
