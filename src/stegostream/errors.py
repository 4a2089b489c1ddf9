"""Exception types shared across the package.

Every error raised on purpose derives from StegoStreamError so callers
can catch one base class. Each class inherits the CLI exit code of its
category from one private base per code: 1 usage (StegoStreamError
itself), 2 capacity, 3 format, 4 network, 5 no valid message.
"""


class StegoStreamError(Exception):
    """Base class for all stegostream errors."""

    exit_code = 1


class _CapacityError(StegoStreamError):
    exit_code = 2


class _FormatError(StegoStreamError):
    exit_code = 3


class _NetworkError(StegoStreamError):
    exit_code = 4


class _NoMessageError(StegoStreamError):
    exit_code = 5


# -- container ---------------------------------------------------------------

class MalformedRiff(_FormatError):
    """RIFF/WAVE structure is broken: truncated chunk, missing fmt/data, ..."""


class UnknownFormat(_FormatError):
    """Input is not a WAV and no raw header override was given."""


class HeaderExceedsFile(_FormatError):
    """Raw header override does not leave any body bytes."""


class UnsupportedDepth(_FormatError):
    """Sample decoding requested for a depth other than 16-bit PCM."""


# -- cipher ------------------------------------------------------------------

class EmptyPassphrase(StegoStreamError):
    """Passphrase must be non-empty."""


class EmptyMessage(StegoStreamError):
    """Messages of zero length cannot be sealed."""


class MessageTooLarge(_CapacityError):
    """Message length does not fit the 32-bit size field."""


# -- stego -------------------------------------------------------------------

class CapacityExceeded(_CapacityError):
    """Carrier is too small for the requested embed; reports required vs available."""


class CarrierTooSmall(_NoMessageError):
    """Carrier cannot even hold the metadata block of the flagged mode."""


class SizeImplausible(_NoMessageError):
    """Declared message size exceeds what the carrier could hold; no valid message."""


# -- quality -----------------------------------------------------------------

class LengthMismatch(_FormatError):
    """Compared sequences must have equal length."""


class FormatMismatch(_FormatError):
    """Compared WAVs must have one sample rate and one channel count."""


class TooShort(_FormatError):
    """Input does not contain a single usable analysis frame."""


class EmptyInput(_FormatError):
    """Waveform comparison needs non-empty signals."""


# -- transfer ----------------------------------------------------------------

class ConnectFailed(_NetworkError):
    """Could not open a connection to the receiver."""


class RemoteRejected(_NetworkError):
    """Receiver answered with a rejection acknowledgment."""


class TransferIoError(_NetworkError):
    """Connection died mid-transfer (short read/write, missing ack)."""


class InvalidTransferName(StegoStreamError):
    """File name cannot go on the wire (separator, control character, leading dot, length)."""


class BindFailed(_NetworkError):
    """Receiver could not bind its listening port."""
