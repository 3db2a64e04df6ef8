"""Whatever text reaches a parser, or a mask template the filler, it ends as
a SqlStepsError or a value."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlsteps.bridge import decompose
from sqlsteps.errors import SqlStepsError, TrajectorySyntaxError, UnknownActionError
from sqlsteps.masking import fill_mask, mask_schema, parse_masked_template
from sqlsteps.querygen import random_queries, store_database
from sqlsteps.schema import parse_database_text, render_database_input
from sqlsteps.sqlast import parse_sql
from sqlsteps.trajectory import parse_filter_text, parse_trajectory, render_trajectory

PARSERS = (parse_sql, parse_trajectory, parse_filter_text, parse_database_text,
           parse_masked_template)

# quotes, brackets, operators, `-`, a digit outside the number grammar (`²`),
# non-ASCII letters, and pieces of each grammar
PIECES = (list("'\"`[]()=<>!|+-*/.,;# \t\n0123456789eE_xé²") +
          ["ß", "İ", "ı", "Ж", "--", "''", "<>", "||", "df1", "res", " = ", "[MASK:0]",
           "select ", "where(", "between 1 and 2", "is not null", "column ", "table "])


STORE = store_database()
# every store column, and a column and a table the store lacks
COLUMNS = ([f"{table.name}.{column.name}" for table in STORE.tables for column in table.columns]
           + ["customers.nope", "nope.id"])


def _sources() -> list[str]:
    queries = random_queries(20, 11)
    trajectories = [decompose(parse_sql(q), STORE) for q in queries[:8]]
    return [*queries, *(render_trajectory(t) for t in trajectories),
            *(mask_schema(t).template for t in trajectories), render_database_input(STORE),
            "in (1, 'a,b', (2, 3))", "between '2020-01-01' and 5", "like 'x''y'"]


SOURCES = _sources()

_random_text = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)
_edit = st.tuples(st.floats(0, 1), st.integers(0, 2), st.sampled_from(PIECES))


@st.composite
def _mutated(draw) -> str:
    """A source text with a few pieces inserted, replaced or deleted."""
    text = draw(st.sampled_from(SOURCES))
    for where, kind, piece in draw(st.lists(_edit, min_size=1, max_size=4)):
        i = int(where * len(text))
        text = text[:i] + ("" if kind == 2 else piece) + text[i + (kind > 0):]
    return text


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(_random_text, _mutated()))
def test_parsers_raise_only_sqlsteps_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except SqlStepsError:
            pass


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(_random_text, _mutated()))
@example("df1 = df.where(element = t.a, filter = 'in (''a''b)')\nres = df1.select(t.a)")
def test_trajectory_errors_name_a_place_in_the_text(text):
    try:
        parse_trajectory(text)
    except (TrajectorySyntaxError, UnknownActionError) as exc:
        lines = text.splitlines() or [""]
        assert 1 <= exc.line <= len(lines)
        if isinstance(exc, TrajectorySyntaxError):
            assert 1 <= exc.column <= max(1, len(lines[exc.line - 1]))
    except SqlStepsError:
        pass


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(_random_text, _mutated()), data=st.data())
def test_fill_mask_raises_only_sqlsteps_errors(text, data):
    try:
        masked = parse_masked_template(text)
    except SqlStepsError:
        return
    values = data.draw(st.lists(st.sampled_from(COLUMNS), min_size=len(masked.slots),
                                max_size=len(masked.slots)))
    try:
        fill_mask(masked, values, STORE)
    except SqlStepsError:
        pass
