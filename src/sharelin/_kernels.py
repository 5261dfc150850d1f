# Read only by the benchmark's machine record; goes away with that read.
BACKEND = "python-int"
