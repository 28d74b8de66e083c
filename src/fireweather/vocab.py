"""IRI vocabulary shared by ingestion, rules, and queries."""

from .rdf import RDF_TYPE  # re-exported with the rest of the vocabulary

CLASS_NS = "urn:ssn:class:"
PROP_NS = "urn:ssn:prop:"
SENSOR_NS = "urn:ssn:sensor:"
OBS_NS = "urn:ssn:obs:"

SENSOR_CLASS = CLASS_NS + "sensor_id"

HAS_VALUE = PROP_NS + "hasvalue"
HAS_UNIT = PROP_NS + "hasUnit"
OBSERVED_BY = PROP_NS + "observedBy"
HAS_DEPLOYMENT_X = PROP_NS + "hasDeploymentX"
HAS_DEPLOYMENT_Y = PROP_NS + "hasDeploymentY"
HAS_MONTH = PROP_NS + "hasMonth"
HAS_DAY = PROP_NS + "hasDay"


def class_iri(name: str) -> str:
    return CLASS_NS + name


def prop_iri(name: str) -> str:
    return PROP_NS + name


def sensor_iri(ordinal: int) -> str:
    return f"{SENSOR_NS}{ordinal}"


def obs_iri(ordinal: int, quantity: str) -> str:
    return f"{OBS_NS}{ordinal}:{quantity}"
