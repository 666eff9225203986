"""Local explanation of the simple model's score for one commit: which of
the 14 metrics pushed the prediction toward defective or clean.

Run:  python demos/05_explain_prediction.py
"""

import numpy as np

from jitdp.corpus import SyntheticSpec, chronological_split, synthesize_corpus, undersample
from jitdp.explain import explain_instance
from jitdp.features import featurize_corpus
from jitdp.simple_model import forest_predict_many, train_forest

corpus = synthesize_corpus(SyntheticSpec(size=400, feature_strength=0.9,
                                         text_strength=0.0, seed=9))
split = chronological_split(corpus)
labels = {c.commit_id: c.label for c in corpus}
vectors = featurize_corpus(corpus)
balanced = sorted(undersample(split.train_ids, labels, seed=1))
train_matrix = np.stack([vectors[i].as_array() for i in balanced])
forest = train_forest(train_matrix, np.array([labels[i] for i in balanced]), seed=2)

target = sorted(split.test_ids)[3]
x = vectors[target].as_array()
score = forest_predict_many(forest, x[None])[0]
print(f"commit {target}: defect probability {score:.3f} "
      f"(label {labels[target]})\n")

explanation = explain_instance(
    lambda rows: forest_predict_many(forest, rows), x, train_matrix,
    n_samples=1000, seed=0)
print(explanation.as_text())
print("\nPositive weights push toward defective, negative toward clean;")
print("conditions show the quartile bin the commit falls in.")
