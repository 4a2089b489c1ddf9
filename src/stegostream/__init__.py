"""Audio steganography toolkit: encrypted embed/extract/delete, quality
metrics, and LAN transfer of stego files."""

from .cipher import SealedPayload, seal, unseal
from .container import AudioCarrier, CarrierKind, FormatInfo, parse_carrier, samples_16
from .errors import StegoStreamError
from .quality import QualityReport, bitplane_diff, segmental_snr, waveform_compare
from .stego import (
    EmbedPlan,
    StegoMode,
    capacity,
    code_for_extension,
    delete_message,
    embed,
    extension_for_code,
    extract,
    inspect_carrier,
    plan_embed,
    read_bit,
)
from .transfer import FileReceiver, send_file

__version__ = "0.1.0"

__all__ = [
    "AudioCarrier",
    "CarrierKind",
    "EmbedPlan",
    "FileReceiver",
    "FormatInfo",
    "QualityReport",
    "SealedPayload",
    "StegoMode",
    "StegoStreamError",
    "bitplane_diff",
    "capacity",
    "code_for_extension",
    "delete_message",
    "embed",
    "extension_for_code",
    "extract",
    "inspect_carrier",
    "parse_carrier",
    "plan_embed",
    "read_bit",
    "samples_16",
    "seal",
    "segmental_snr",
    "send_file",
    "unseal",
    "waveform_compare",
]
