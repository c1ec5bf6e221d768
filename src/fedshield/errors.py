"""Exception types shared across the package."""


class FedShieldError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(FedShieldError):
    """A caller-supplied value violates an operation's precondition."""


class DecodeError(FedShieldError):
    """Malformed serialized bytes (wire frame, quote, header, token)."""


class QuoteDecodeError(DecodeError):
    """A serialized quote could not be parsed."""


class IntegrityError(FedShieldError):
    """Authenticated-encryption tag verification failed."""


class SealAuthenticationError(IntegrityError):
    """A sealed blob failed authentication: another measurement or platform
    sealed it, or it was altered."""


class FreshnessTokenError(FedShieldError):
    """A counter token failed signature verification or is unusable."""


class RollbackDetectedError(FedShieldError):
    """A shielded file's counter value does not match the stable counter."""


class KeyResolutionError(FedShieldError):
    """No key material could be resolved for a key id."""


class HandshakeError(FedShieldError):
    """A refused quote or aborted handshake; ``check`` names the failing check."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        self.detail = detail
        super().__init__(f"handshake rejected ({check}): {detail}" if detail
                         else f"handshake rejected ({check})")


class ChannelIntegrityError(FedShieldError):
    """A secure-channel frame failed authentication; the channel is closed."""


class ChannelReplayError(FedShieldError):
    """A secure-channel frame arrived with an out-of-sequence counter."""


class TransportClosedError(FedShieldError):
    """The underlying transport was closed by the peer."""


class PolicyInvalidError(FedShieldError):
    """A policy document violates the schema or its internal invariants."""


class PolicyConflictError(FedShieldError):
    """A policy name is already bound to different content."""


class AlreadyGeneratedError(FedShieldError):
    """Secrets for this policy were already generated."""


class AccessDeniedError(FedShieldError):
    """Secret release refused; ``check`` names the failing attestation check."""

    def __init__(self, check: str):
        self.check = check
        super().__init__(f"access denied ({check})")


class RoleUnknownError(FedShieldError):
    """The requested role is not declared in the policy."""


class NotFoundError(FedShieldError):
    """Unknown counter, policy, or resource identifier."""


class NumericalDivergenceError(FedShieldError):
    """Training produced non-finite weights or loss."""


class InvalidConfigError(FedShieldError):
    """A session or clone configuration value is out of range."""


class RoundQuorumError(FedShieldError):
    """Fewer than the required number of clients responded in a round."""


class SessionFailedError(FedShieldError):
    """The session could not complete; a partial audit trail exists."""


class ServiceError(FedShieldError):
    """An error reply from a service; ``check`` is a denial's failing check."""

    def __init__(self, kind: str, detail: str = "", check: str | None = None):
        self.kind = kind
        self.detail = detail
        self.check = check
        super().__init__(f"{kind}: {detail}" if detail else kind)
