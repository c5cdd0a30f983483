"""The CDCL reference every EPA enumeration variant is compared against.

``EpaEngine.analyze``, ``EpaEngine.aggregate`` and their sharded forms
all run one projected cube sweep, so comparing them with one another
would compare that sweep with itself.  ``EpaEngine.analyze_stream``
enumerates the same scenario space with the CDCL enumerator instead —
conflict-driven search, projected blocking clauses, outcomes read off
full models — which makes the RAG1 fold of its outcomes an independent
oracle for every variant.
"""

from repro.epa import EpaReport, ScenarioAggregate


def magnitudes(engine):
    return {r.name: r.magnitude for r in engine.requirements}


def cdcl_reference(engine, **kwargs):
    """RAG1 bytes of the CDCL enumeration (``kwargs`` as for
    ``analyze_stream``)."""
    return ScenarioAggregate.from_outcomes(
        engine.analyze_stream(**kwargs),
        [r.name for r in engine.requirements],
        magnitudes(engine),
    ).dumps()


def rag1(engine, result):
    """RAG1 bytes of a sweep result: an ``EpaReport`` (folded) or a
    ``ScenarioAggregate``."""
    if isinstance(result, EpaReport):
        result = result.to_aggregate(magnitudes(engine))
    return result.dumps()


def cdcl_outcomes(engine, **kwargs):
    """The CDCL enumeration's outcomes in report order, for what RAG1
    does not record: erroneous components, detection points, paths."""
    return EpaReport(
        list(engine.analyze_stream(**kwargs)),
        [r.name for r in engine.requirements],
    ).outcomes
