"""Tour of the 2D conditional toy datasets.

Each family pairs points with integer class labels: mixture component for
the Gaussian ring, arc index for the moons, tile parity for the board. The
pooled coordinate standard deviation sigma_d is the single scale number the
rest of the pipeline keys on.

Run:  python demos/01_datasets.py
"""

import os

import numpy as np

import tfdl
from tfdl.runio import scatter_svg, write_samples_csv

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

for name in ("gauss-mix", "two-moons", "checkerboard"):
    ds = tfdl.generate(name, 8000, seed=0)
    print(f"{name:13s} n={len(ds)}  classes={ds.n_classes}  sigma_d={ds.sigma_d:.4f}")
    write_samples_csv(os.path.join(OUT, f"{name}.csv"), ds.points, ds.labels)
    scatter_svg(os.path.join(OUT, f"{name}.svg"), ds.points, ds.labels, title=name)

# the single-component configuration doubles as an analytic reference: its
# pooled std estimates the component std directly
ref = tfdl.generate("gauss-mix", 10 ** 5, seed=7, components=1, comp_std=0.5, radius=0.0)
print(f"\nsingle Gaussian with component std 0.5: sigma_d = {ref.sigma_d:.4f}")

# minibatches draw with replacement and respect class balance
_, y = tfdl.minibatch_arrays(tfdl.generate("gauss-mix", 30000, seed=1), 10 ** 5,
                             np.random.default_rng(0))
print("class frequencies in a large batch:", np.round(np.bincount(y) / len(y), 4))
print(f"\nwrote CSV/SVG artifacts to {OUT}")
