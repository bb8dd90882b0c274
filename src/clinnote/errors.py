"""Exception hierarchy shared across the pipeline."""


class ClinNoteError(Exception):
    """Base class for pipeline errors."""


class ConfigError(ClinNoteError):
    """Bad configuration: unknown key, type mismatch, or missing file."""


class InvalidInput(ClinNoteError):
    """Caller violated an operation precondition."""


class RequestFailed(ClinNoteError):
    """Gateway request exhausted its retries or got a non-2xx status."""


class EmptyResponse(ClinNoteError):
    """The endpoint returned an empty completion."""


class ProtocolError(ClinNoteError):
    """Endpoint reply violated the wire protocol (e.g. mixed embedding dims)."""


class ParseFailure(ClinNoteError):
    """No JSON object could be located in a model reply."""


class SchemaViolation(ClinNoteError):
    """JSON found but it does not fit the expected schema."""


class ReplyUnusable(ClinNoteError):
    """An agent reply still failed to parse after the one repair re-prompt."""

    def __init__(self, message, raw_text):
        super().__init__(message)
        self.raw_text = raw_text


class InvalidVariable(ClinNoteError):
    """Unknown extraction variable name."""


class SchemeSynthesisFailed(SchemaViolation):
    """Category scheme failed validation; synthesis raises it once the
    repair re-prompt has failed too."""


class JudgeFailed(ClinNoteError):
    """Diagnosis judge reply unusable after the repair attempt."""


class SeparationDetected(ClinNoteError):
    """Logistic fit diverged: the classes are (quasi-)completely separated."""


class NoConvergence(ClinNoteError):
    """Iterative fit did not reach tolerance within the iteration budget."""


class DegeneratePredictor(ClinNoteError):
    """Predictor is constant (or otherwise unusable) for regression."""


class DegenerateTable(ClinNoteError):
    """Contingency table has fewer than two usable rows."""


class NoData(ClinNoteError):
    """Aggregation requested over an empty value list."""


class VectorizerDegenerate(ClinNoteError):
    """TF-IDF fit produced an empty vocabulary."""


class CVInfeasible(ClinNoteError):
    """Stratified folds could not be built with both classes present."""


class DependencyMissing(ClinNoteError):
    """A pipeline stage ran before its prerequisite stage."""

    def __init__(self, stage):
        super().__init__(f"missing output of prerequisite stage '{stage}'")
        self.stage = stage
