"""End-to-end run over the bundled weather dataset.

Run from the repository root: python3 demos/06_dataset_pipeline.py
"""

from collections import Counter

from fireweather import vocab
from fireweather.assess import alerts_for, assess, synthetic_timestamp
from fireweather.indices import WeatherInputs, compute_chain
from fireweather.ingest import ingest_observations, parse_csv

with open("data/forestfires.csv", encoding="utf-8") as fh:
    rows = parse_csv(fh.read())
print(f"parsed {len(rows)} daily observations")

graph = ingest_observations(rows)
print(f"mapped to {len(graph)} triples in the sensor store")

assessments = []
for ordinal, row in enumerate(rows, start=1):
    rec = compute_chain(row.ffmc, row.dmc, row.dc, row.wind)
    weather = WeatherInputs(temp=row.temp, rh=row.rh, wind=row.wind, rain_24h=row.rain)
    assessments.append(
        assess(rec, weather, vocab.sensor_iri(ordinal), synthetic_timestamp(row.month))
    )

counts = Counter(str(a.verdict) for a in assessments)
print("\nverdict distribution:")
for verdict, n in sorted(counts.items(), key=lambda kv: -kv[1]):
    print(f"  {verdict:10s} {n}")

alerts = alerts_for(assessments)
print(f"\n{len(alerts)} alerts raised; first three:")
for alert in alerts[:3]:
    print(f"  {alert.message} ({alert.sensor})")
