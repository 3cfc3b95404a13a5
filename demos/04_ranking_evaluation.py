"""How the ranking benchmarks are scored: cosine ranking and nDCG.

Run: python demos/04_ranking_evaluation.py
"""

import numpy as np

from weakpairs import cosine_similarity, ndcg, permutation_ndcg_baseline
from weakpairs.evaluate import rank_candidates

# nDCG rewards putting relevant candidates early; 1.0 is a perfect ranking
print("relevance list [1,1,0,0]   ->", round(ndcg([1, 1, 0, 0]), 4))
print("relevance list [1,0,1,0]   ->", round(ndcg([1, 0, 1, 0]), 4))
print("relevance list [0,0,1,1]   ->", round(ndcg([0, 0, 1, 1]), 4))
print()

# the benchmark shape is 5 relevant candidates hidden among 25 distractors;
# a random ranking scores this floor on average (exact: every rank holds a
# positive with probability 5/30)
floor = permutation_ndcg_baseline(num_positives=5, num_negatives=25)
worst = ndcg([0] * 25 + [1] * 5)
print(f"random-ranking floor (exact):        {floor:.4f}")
print(f"worst possible ranking:              {worst:.4f}")
print()

# candidates are ordered by cosine similarity to the query embedding,
# ties broken by their original position
query = np.array([1.0, 0.0])
candidates = {
    "aligned":      np.array([2.0, 0.1]),
    "orthogonal":   np.array([0.0, 3.0]),
    "opposed":      np.array([-1.0, 0.0]),
    "tied aligned": np.array([4.0, 0.2]),
}
sims = [cosine_similarity(query, vec) for vec in candidates.values()]
order = rank_candidates(sims)
names = list(candidates)
print("query-similarity ranking:")
for rank, idx in enumerate(order, start=1):
    print(f"  {rank}. {names[idx]:13s} cos={sims[idx]:+.4f}")
print("\n(scaling every embedding by a positive constant cannot change this order)")
