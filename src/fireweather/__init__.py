"""Fire-weather decision support over an RDF sensor store."""

from .assess import Alert, Assessment, Verdict, alerts_for, assess
from .bands import SCALES, rain_override, wind_risk
from .indices import (
    FuelSample,
    FwiRecord,
    WeatherInputs,
    bui_from,
    compute_chain,
    daily_update,
    ffmc_from_fmc,
    fmc_from_ffmc,
    fmc_from_masses,
    fwi_from,
    isi_from,
)
from .ingest import WeatherObservation, ingest_observations, ntriples_lines, parse_csv
from .rdf import Graph, Term, Triple, TriplePattern, export_ntriples, import_ntriples
from .rules import InferredFact, Rule, forward_chain, load_rules, parse_rules
from .sparql import Query, ResultTable, evaluate, parse_query

__version__ = "0.1.0"
