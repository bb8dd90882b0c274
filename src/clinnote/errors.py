"""Exception hierarchy shared across the pipeline; each class's docstring
names its failure policy."""


class ClinNoteError(Exception):
    """Base class for pipeline errors."""


class ConfigError(ClinNoteError):
    """Bad configuration: unknown key, type mismatch, or missing file. The
    CLI exits with code 2."""


class InvalidInput(ClinNoteError):
    """Caller violated an operation precondition. No stage catches it, so
    the stage fails."""


class RequestFailed(ClinNoteError):
    """Gateway request exhausted its retries or got a non-2xx status. Never
    cached; the stage fails."""


class EmptyResponse(ClinNoteError):
    """The endpoint returned an empty completion. Never cached; the stage
    fails."""


class ProtocolError(ClinNoteError):
    """Endpoint reply violated the wire protocol (e.g. mixed embedding dims).
    Never cached; the stage fails."""


class ParseFailure(ClinNoteError):
    """A model reply does not fit: no JSON value where one is expected, a
    JSON value of the wrong shape, or text the agent's contract rejects.
    ``chat_with_repair`` answers it with one repair re-prompt."""


class ReplyUnusable(ClinNoteError):
    """An agent reply still failed to parse after the one repair re-prompt.
    The agent records it as that item's outcome."""

    def __init__(self, message, raw_text):
        super().__init__(message)
        self.raw_text = raw_text


class SchemeSynthesisFailed(ParseFailure):
    """Category scheme failed validation; synthesis raises it once the
    repair re-prompt has failed too, and normalize fails."""


class JudgeFailed(ClinNoteError):
    """Diagnosis judge reply unusable after the repair attempt.
    Evaluate-fidelity counts it in the judge report's ``n_failed``."""


class NoEstimate(ClinNoteError):
    """The data admits no estimate: a separated or non-converging logistic
    fit, a constant predictor, too few observations or one outcome class, a
    degenerate contingency table, an empty vocabulary, or folds that cannot
    hold both classes. Associate and predict record the row or variant as
    ``skipped``, with the message."""


class DependencyMissing(ClinNoteError):
    """A stage's prerequisite has not run here with this version of clinnote.
    The CLI exits with code 3."""

    def __init__(self, stage):
        super().__init__(f"run prerequisite stage '{stage}' first: this run directory "
                         f"holds no output of it made by this version of clinnote")
        self.stage = stage
