"""MRT (Multi-Threaded Routing Toolkit, RFC 6396) format substrate.

Route collector archives (RIPE RIS, RouteViews, PCH) publish their data as
MRT files: ``bview``/RIB snapshots encoded as TABLE_DUMP_V2 records and
``updates`` files encoded as BGP4MP records wrapping raw BGP messages.  This
package provides a from-scratch binary writer and reader for both record
families so that the simulated collector feeds can be archived to and
re-parsed from genuine MRT bytes.
"""

from repro.mrt.constants import MrtSubtype, MrtType
from repro.mrt.reader import MrtError, MrtReader, read_messages, read_records
from repro.mrt.writer import MrtWriter, write_rib, write_updates

__all__ = [
    "MrtError",
    "MrtReader",
    "MrtSubtype",
    "MrtType",
    "MrtWriter",
    "read_messages",
    "read_records",
    "write_rib",
    "write_updates",
]
