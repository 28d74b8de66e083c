"""Band classification and the precautionary decision flow.

Run from the repository root: python3 demos/03_bands_and_assessment.py
"""

import json

from fireweather.assess import alerts_for, assess
from fireweather.bands import FIRE_INTENSITY, IGNITION_POTENTIAL
from fireweather.indices import WeatherInputs, compute_chain

# Each index maps to a qualitative band via fixed thresholds.
for fwi in (3.0, 8.0, 15.0, 23.0, 35.0):
    print(f"FWI {fwi:5.1f} -> {FIRE_INTENSITY.classify(fwi)}")
print(f"FFMC 95 -> ignition {IGNITION_POTENTIAL.classify(95.0)}")

# A hot dry day escalates all the way to an Extreme verdict...
rec = compute_chain(ffmc=95.0, dmc=47.0, dc=321.0, wind=10.0)
dry = WeatherInputs(temp=30.0, rh=20.0, wind=10.0, rain_24h=0.0)
a = assess(rec, dry, "urn:ssn:sensor:demo", "2000-08-15")
print(f"\ndry day verdict: {a.verdict}")
for step in a.trace:
    print(f"  {step}")

# ...and the same indices under real rain collapse to NoFireRisk.
wet = WeatherInputs(temp=30.0, rh=20.0, wind=10.0, rain_24h=4.0)
print(f"rainy day verdict: {assess(rec, wet, 'urn:ssn:sensor:demo').verdict}")

# Act/Extreme verdicts produce alerts ready for JSON transport.
for alert in alerts_for([a]):
    print(f"\nalert: {json.dumps(vars(alert), sort_keys=True)}")
