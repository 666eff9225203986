"""Train the two component models on a synthetic corpus and compare what
each one can see: the forest reads only the 14 metrics, the deep model reads
only the message and change text.

Run:  python demos/03_train_both_models.py   (about half a minute)
"""

import numpy as np

from jitdp.corpus import SyntheticSpec, chronological_split, synthesize_corpus, undersample
from jitdp.deep_model import build_dataset, score_dataset, train_deep
from jitdp.evaluation import prf1
from jitdp.features import featurize_corpus
from jitdp.pipeline import RunConfig
from jitdp.simple_model import forest_predict_many, train_forest
from jitdp.textprep import build_vocab, render_change_document, tokenize

spec = SyntheticSpec(size=800, feature_strength=0.6, text_strength=0.6, seed=3)
corpus = synthesize_corpus(spec)
split = chronological_split(corpus)
by_id = {c.commit_id: c for c in corpus}
order = {c.commit_id: i for i, c in enumerate(corpus)}
train_ids = sorted(split.train_ids, key=order.get)
val_ids = sorted(split.validation_ids, key=order.get)
test_ids = sorted(split.test_ids, key=order.get)
labels = {c.commit_id: c.label for c in corpus}
vectors = featurize_corpus(corpus)

# --- simple model: random forest on undersampled training features -------
balanced = sorted(undersample(train_ids, labels, seed=1))
forest = train_forest(
    np.stack([vectors[i].as_array() for i in balanced]),
    np.array([labels[i] for i in balanced]), seed=2)
sim_scores = forest_predict_many(forest, np.stack([vectors[i].as_array() for i in test_ids]))

# --- deep model: hierarchical textCNN with validation checkpointing ------
docs = []
for i in train_ids:
    docs.append(tokenize(by_id[i].message))
    docs.extend(render_change_document(f) for f in by_id[i].files)
vocab = build_vocab(docs)
# The desk-scale setup: the default RunConfig's shapes and deep config.
shape, deep_cfg = RunConfig().text_shape(), RunConfig().deep_config()
train_ds = build_dataset([by_id[i] for i in train_ids], vocab, shape)
val_ds = build_dataset([by_id[i] for i in val_ids], vocab, shape)
test_ds = build_dataset([by_id[i] for i in test_ids], vocab, shape)

params, log = train_deep(train_ds, val_ds, len(vocab), deep_cfg, seed=5)
print("epoch  loss   val-ROC  val-PR  val-F1")
for e in log:
    print(f"{e.epoch:>5}  {e.train_loss:.3f}  {e.val_auc_roc:.3f}   "
          f"{e.val_auc_pr:.3f}   {e.val_f1:.3f}")
deep_scores = score_dataset(params, deep_cfg, test_ds)

y_test = test_ds.labels
sim_report = prf1(sim_scores, y_test)
deep_report = prf1(deep_scores, y_test)
print(f"\nforest on metrics : AUC-ROC {sim_report.auc_roc:.3f}, "
      f"AUC-PR {sim_report.auc_pr:.3f}, F1 {sim_report.f1:.3f}")
print(f"textCNN on content: AUC-ROC {deep_report.auc_roc:.3f}, "
      f"AUC-PR {deep_report.auc_pr:.3f}, F1 {deep_report.f1:.3f}")
print("\nEach model sees half the planted signal; fusing them is demo 04.")
