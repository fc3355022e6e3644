"""Imported before any test module: lmdistill pins one BLAS thread only if it loads
before numpy, so the suite runs at the thread count the CLI runs at."""

import lmdistill  # noqa: F401
