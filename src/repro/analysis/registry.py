"""The unified analysis registry: addressable figure/table artifacts.

The paper's deliverables are its tables and figures.  Each analysis module
registers them here under a stable name (``"fig2"``, ``"table1"``, ...) via
the :func:`analysis` decorator, declaring which pipeline artifacts it
*needs*; every registered analysis is a uniform :class:`Analysis` whose
``compute(result)`` returns an :class:`AnalysisResult` -- typed rows plus
``to_dict()`` (machine-readable) and ``render()`` (text table).

That single contract is what makes the evaluation layer addressable
everywhere:

* ``StudyResult.analysis("fig2")`` resolves exactly the declared ``needs``
  through the :class:`~repro.exec.context.PipelineContext`, so an
  inference-free artifact never pays for the inference pass;
* ``CampaignResult.tabulate("table2", by="seed")`` computes one analysis
  across every cell of a sweep, reusing the campaign's shared
  :class:`~repro.exec.context.ArtifactCache`;
* ``repro report fig2 table1 --format json`` runs named analyses from the
  command line (``repro report --list`` enumerates this registry).

Registration happens on module import; :func:`names`/:func:`get` import the
analysis modules on first use, so consumers never need to pre-import them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.analysis.common import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pipeline import StudyResult

__all__ = [
    "Analysis",
    "AnalysisResult",
    "all_analyses",
    "analysis",
    "get",
    "names",
]


def jsonify(value: object) -> object:
    """A JSON-serialisable view of any analysis value.

    Dataclasses become field dicts, mappings get string keys, sets are
    sorted (by their converted representation) for determinism, and
    anything else falls back to ``str`` -- prefixes, communities and other
    domain objects all render through their canonical string forms.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((jsonify(item) for item in value), key=str)
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    return str(value)


@dataclass(frozen=True)
class AnalysisResult:
    """One computed figure/table artifact.

    ``rows`` are the artifact's typed rows (dataclasses, mappings, or plain
    cell tuples) -- e.g. Figure 4's ``DailyActivity`` series or Table 1's
    ``DatasetOverviewRow`` per source; ``headers`` name the rendered
    columns.  ``display_rows`` optionally overrides the rendered cells when
    the text table formats differently from the raw fields (e.g. Table 2's
    ``"307 (102)"`` documented-(inferred) columns); ``meta`` carries the
    headline scalars quoted alongside the figure in the paper.
    """

    name: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[object, ...]
    display_rows: tuple[tuple[object, ...], ...] | None = None
    meta: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def _cells(self, row: object) -> tuple[object, ...]:
        if is_dataclass(row) and not isinstance(row, type):
            return tuple(getattr(row, f.name) for f in fields(row))
        if isinstance(row, Mapping):
            return tuple(row.get(header) for header in self.headers)
        if isinstance(row, Sequence) and not isinstance(row, str):
            return tuple(row)
        return (row,)

    def table_cells(self) -> tuple[tuple[object, ...], ...]:
        """The cells :meth:`render` lays out, one tuple per displayed row.

        ``display_rows`` when the analysis overrides its rendering,
        otherwise the raw row fields -- the artifact serialisers persist
        these alongside :meth:`to_dict` so a reloaded result still renders.
        """
        if self.display_rows is not None:
            return self.display_rows
        return tuple(self._cells(row) for row in self.rows)

    def row_dicts(self) -> list[dict[str, object]]:
        """The rows as JSON-safe dicts (dataclass fields / mapping keys)."""
        dicts: list[dict[str, object]] = []
        for row in self.rows:
            if (is_dataclass(row) and not isinstance(row, type)) or isinstance(
                row, Mapping
            ):
                dicts.append(jsonify(row))
            else:
                cells = self._cells(row)
                dicts.append(
                    {str(header): jsonify(cell) for header, cell in zip(self.headers, cells)}
                )
        return dicts

    def to_dict(self) -> dict[str, object]:
        """Machine-readable form (stable keys, JSON-serialisable values)."""
        return {
            "name": self.name,
            "title": self.title,
            "headers": list(self.headers),
            "rows": self.row_dicts(),
            "meta": {key: jsonify(value) for key, value in self.meta.items()},
        }

    def render(self) -> str:
        """The artifact as a fixed-width text table plus its meta lines."""
        lines = [format_table(self.headers, self.table_cells(), title=self.title)]
        if self.meta:
            lines.append("")
            for key, value in self.meta.items():
                lines.append(f"{key}: {jsonify(value)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Analysis:
    """One registered analysis: a name, its artifact needs, and a compute.

    ``needs`` lists the :class:`~repro.exec.context.PipelineContext`
    artifacts the compute touches; :meth:`run` resolves them first, so the
    stage work an analysis pays for is exactly its declaration (the
    laziness tests pin this down).
    """

    name: str
    title: str
    needs: tuple[str, ...]
    compute: Callable[["StudyResult"], AnalysisResult]

    @property
    def kind(self) -> str:
        """``"table"`` or ``"figure"``, from the registered name."""
        return "table" if self.name.startswith("table") else "figure"

    def run(self, result: "StudyResult") -> AnalysisResult:
        """Resolve the declared needs through the context, then compute."""
        result.context.get_many(self.needs)
        return self.compute(result)


_REGISTRY: dict[str, Analysis] = {}

#: Modules that register analyses on import (all fig*/table* modules).
_ANALYSIS_MODULES = (
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "table2",
    "table3",
    "table4",
)


def analysis(
    name: str, *, title: str, needs: Iterable[str] = ()
) -> Callable[[Callable[["StudyResult"], AnalysisResult]], Callable]:
    """Register a compute function as the named analysis artifact."""

    def register(fn: Callable[["StudyResult"], AnalysisResult]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"analysis {name!r} is already registered")
        _REGISTRY[name] = Analysis(name=name, title=title, needs=tuple(needs), compute=fn)
        return fn

    return register


def _ensure_registered() -> None:
    for module in _ANALYSIS_MODULES:
        import_module(f"repro.analysis.{module}")


def names() -> tuple[str, ...]:
    """All registered analysis names, sorted."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def all_analyses() -> tuple[Analysis, ...]:
    """All registered analyses, in name order."""
    _ensure_registered()
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get(name: str) -> Analysis:
    """The named analysis, or ``KeyError`` naming the known registry."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown analysis {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None

