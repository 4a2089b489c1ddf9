"""Exception types shared across the package.

Every error raised on purpose derives from StegoStreamError so callers
can catch one base class. Each class carries the CLI exit code for its
category: 1 usage, 2 capacity, 3 format, 4 network, 5 no valid message.
"""


class StegoStreamError(Exception):
    """Base class for all stegostream errors."""

    exit_code = 1


# -- container ---------------------------------------------------------------

class MalformedRiff(StegoStreamError):
    """RIFF/WAVE structure is broken: truncated chunk, missing fmt/data, ..."""

    exit_code = 3


class UnknownFormat(StegoStreamError):
    """Input is not a WAV and no raw header override was given."""

    exit_code = 3


class HeaderExceedsFile(StegoStreamError):
    """Raw header override does not leave any body bytes."""

    exit_code = 3


class UnsupportedDepth(StegoStreamError):
    """Sample decoding requested for a depth other than 16-bit PCM."""

    exit_code = 3


# -- cipher ------------------------------------------------------------------

class EmptyPassphrase(StegoStreamError):
    """Passphrase must be non-empty."""


class EmptyMessage(StegoStreamError):
    """Messages of zero length cannot be sealed."""


class MessageTooLarge(StegoStreamError):
    """Message length does not fit the 32-bit size field."""

    exit_code = 2


# -- stego -------------------------------------------------------------------

class CapacityExceeded(StegoStreamError):
    """Carrier is too small for the requested embed; reports required vs available."""

    exit_code = 2


class CarrierTooSmall(StegoStreamError):
    """Carrier cannot even hold the metadata block of the flagged mode."""

    exit_code = 5


class SizeImplausible(StegoStreamError):
    """Declared message size exceeds what the carrier could hold; no valid message."""

    exit_code = 5


# -- quality -----------------------------------------------------------------

class LengthMismatch(StegoStreamError):
    """Compared sequences must have equal length."""

    exit_code = 3


class TooShort(StegoStreamError):
    """Input does not contain a single usable analysis frame."""

    exit_code = 3


class EmptyInput(StegoStreamError):
    """Waveform comparison needs non-empty signals."""

    exit_code = 3


# -- transfer ----------------------------------------------------------------

class ConnectFailed(StegoStreamError):
    """Could not open a connection to the receiver."""

    exit_code = 4


class RemoteRejected(StegoStreamError):
    """Receiver answered with a rejection acknowledgment."""

    exit_code = 4


class TransferIoError(StegoStreamError):
    """Connection died mid-transfer (short read/write, missing ack)."""

    exit_code = 4


class InvalidTransferName(StegoStreamError):
    """File name cannot go on the wire (separator, control character, leading dot, length)."""


class BindFailed(StegoStreamError):
    """Receiver could not bind its listening port."""

    exit_code = 4
