"""The repository benchmark: see run.py for how to run it."""
