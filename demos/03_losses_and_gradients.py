"""The two training objectives and the hand-written backward pass.

Run: python demos/03_losses_and_gradients.py
"""

import numpy as np

from weakpairs import backprop, encode, encode_with_trace, flat_ids, init_model, mn_loss, triplet_loss
from weakpairs.textproc import PAD_TOKEN, UNK_TOKEN, Vocabulary

# --- triplet loss: hinge on euclidean distances --------------------------------
anchor = np.array([0.0, 0.0])
positive = np.array([1.0, 0.0])   # distance 1
negative = np.array([0.0, 2.0])   # distance 2
loss, (g_a, g_p, g_n) = triplet_loss(anchor, positive, negative, margin=2.0)
print(f"triplet: d(a,p)=1, d(a,n)=2, margin=2  ->  loss = {loss}")
print(f"  grad wrt anchor {g_a}, positive {g_p}, negative {g_n}")

loss, _ = triplet_loss(anchor, positive, np.array([0.0, 4.0]), margin=2.0)
print(f"triplet with the negative pushed to distance 4 -> loss = {loss} (hinge inactive)\n")

# --- multiple negatives: every other positive in the batch is a negative -------
anchors = np.eye(3)
positives = np.eye(3)
for scale in (1.0, 5.0, 20.0):
    loss, _, _ = mn_loss(anchors, positives, scale=scale)
    print(f"mn loss with matched orthogonal pairs, scale {scale:5.1f}: {loss:.6f}")
print("(higher scale sharpens the softmax, driving the matched-pair loss to zero)\n")

# --- the encoder's analytic gradients vs finite differences --------------------
vocab = Vocabulary(tokens=[PAD_TOKEN, UNK_TOKEN] + [f"w{i}" for i in range(10)])
model = init_model(vocab, dim=4, seed=1)
ids = [2, 5, 7]
grad_out = np.array([1.0, -0.5, 0.25, 2.0])

# a batch of one sentence; longer batches are right-padded and masked
vecs, trace = encode_with_trace(model, *flat_ids(model, [ids]))
grads = backprop(model, trace, [grad_out])
# the embedding gradient is compact: one summed row per distinct token of the batch
print(f"embedding gradient rows: {grads['embedding'].ids.tolist()} of {len(vocab)}")


def check(name, i, j, analytic):
    param = model.params[name]
    step = 1e-5
    original = param[i, j]
    param[i, j] = original + step
    up = float(grad_out @ encode(model, ids))
    param[i, j] = original - step
    down = float(grad_out @ encode(model, ids))
    param[i, j] = original
    numeric = (up - down) / (2 * step)
    print(f"d<g, embedding>/d {name}[{i},{j}]")
    print(f"  analytic:          {analytic:+.12f}")
    print(f"  central difference:{numeric:+.12f}")
    print(f"  relative error:    {abs(analytic - numeric) / max(abs(analytic), 1e-12):.2e}")


check("w_q", 1, 2, grads["w_q"][1, 2])
embedding = grads["embedding"]
check("embedding", 5, 2, embedding.rows[embedding.ids.tolist().index(5), 2])
print("\n(the test suite repeats this over every parameter of 100 random models)")
