"""Show how dual syntactic/semantic scoring picks a pattern.

A generic pattern can cover a requirement just as completely as a specific
one; the span penalty and the semantic check are what separate them.
"""

from perfquant import (
    ClassLabel,
    MatcherConfig,
    Pattern,
    lcs,
    select,
    semantic_score,
    syntactic_score,
)
from perfquant.data import default_store
from perfquant.patterns import PatternKB
from perfquant.text import tokenize

store = default_store()
requirement = tokenize("the product shall be capable of handling the existing 1000 users")
print(f"requirement: {requirement.raw!r}\n")

candidates = [
    Pattern(("shall", "be", "<N>"), ClassLabel.from_codes("G", "S")),
    Pattern(("be", "capable", "of", "supporting", "<N>"), ClassLabel.from_codes("G", "E")),
]

for pattern in candidates:
    result = lcs(pattern, requirement)
    syn_raw, syn = syntactic_score(pattern, result)
    sem = semantic_score(store, pattern, result)
    matched = " ".join(requirement.normalized[j] for j in result.matched_positions)
    print(f"pattern {pattern.text!r} -> label {pattern.label}")
    print(f"  common subsequence: {matched!r}"
          f" at positions {result.matched_positions}")
    print(f"  coverage {syn_raw:.3f}, span-penalized {syn:.3f}, semantic {sem:.3f}\n")

kb = PatternKB.build(candidates)
winner = select(kb, store, requirement, MatcherConfig(w=0.7))
print(f"fused winner at w=0.7: {winner.pattern.text!r}"
      f" -> {winner.label} with expectation {winner.v_beta:g}")

print("\nNegation flips the preference when the negator is outside the match:")
kb2 = PatternKB.build(
    [Pattern(("more", "than", "<N>"), ClassLabel.from_codes("G", "E"))],
)
for text in (
    "the throughput shall be more than 200 users",
    "the response time shall be no more than 100 milliseconds",
):
    match = select(kb2, store, tokenize(text))
    print(f"  {text!r} -> {match.label} (v = {match.v_beta:g})")
