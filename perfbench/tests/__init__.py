"""Tests of the benchmark's span recorder and trace arithmetic."""
