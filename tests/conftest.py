import sys

# Queries on deeply lifted constructions (limits whose members are built
# from earlier members) legitimately stack a few thousand frames.
sys.setrecursionlimit(50_000)

