"""Test-only reader: the inverse of ``jchsim.io.write_csv`` for numeric files."""

import numpy as np


def read_csv(path):
    """Inverse of write_csv for numeric files: returns (header, data array)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return header, np.array([[float(c) for c in line.split(",")] for line in fh])
