import sys

# The CLI's limit: each lifted node asks its operands from inside its own
# query, so a query nests as deep as the expression tree (digits of
# e+e+...+e with 150 terms overflow the default 1,000 frames).
sys.setrecursionlimit(50_000)

