"""The HAT taxonomy: models, availability classes, and survey.

* :mod:`repro.taxonomy.models` — the one table of every isolation /
  consistency / session model the paper classifies: a row states the models
  it extends and the phenomena it adds; its prohibited set, downward closure
  (Figure 2's order), availability class and reason for unavailability
  (Table 3) are read off the table, and Figure 2's combinations are module
  functions over it,
* :mod:`repro.taxonomy.survey` — the Table 2 survey of default and maximum
  isolation levels in 18 ACID/NewSQL databases.
"""

from repro.taxonomy.models import (
    AVAILABLE,
    STICKY,
    UNAVAILABLE,
    ConsistencyModel,
    MODELS,
    availability_summary,
    model,
)
from repro.taxonomy.survey import DATABASE_SURVEY, DatabaseSurveyEntry, survey_statistics

__all__ = [
    "AVAILABLE",
    "STICKY",
    "UNAVAILABLE",
    "ConsistencyModel",
    "MODELS",
    "model",
    "availability_summary",
    "DATABASE_SURVEY",
    "DatabaseSurveyEntry",
    "survey_statistics",
]
