from hypothesis import settings

# Reproducible property tests: the same examples on every run, and no
# per-example deadline, whose wall-clock timing would flake on a loaded box.
settings.register_profile("rankvar", derandomize=True, deadline=None, database=None)
settings.load_profile("rankvar")
