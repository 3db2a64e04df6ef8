"""The one schema check of a trajectory against a database input.

`validate_trajectory` returns its error messages: each unknown table once,
sorted, then each unknown column of a known table once, in first-occurrence
order; a column of an unknown table adds nothing. `revert` raises them
joined, `fill_mask` the first with the slot it blames. The columns of a
compound condition are among them; one without its table is a syntax error
of the trajectory text, so no trajectory holds one.
"""

import pytest

from sqlsteps.bridge import revert
from sqlsteps.errors import SchemaMismatchError, TrajectorySyntaxError
from sqlsteps.masking import fill_mask, mask_schema
from sqlsteps.trajectory import parse_trajectory, validate_trajectory


@pytest.mark.parametrize("columns, errors, slot", [
    ("orders.id, customers.city", [], None),
    ("zeta.a, alpha.b, zeta.c, orders.id",
     ["table 'alpha' not in database 'store'", "table 'zeta' not in database 'store'"], 1),
    ("orders.nope, customers.zip, orders.nope, orders.id",
     ["column orders.nope not in database 'store'",
      "column customers.zip not in database 'store'"], 0),
    ("orders.id, nope.id, nope.x, customers.zip",
     ["table 'nope' not in database 'store'",
      "column customers.zip not in database 'store'"], 1),
])
def test_schema_errors_of_revert_and_fill_mask(store, columns, errors, slot):
    t = parse_trajectory(f"res = df.select({columns})\n")
    assert validate_trajectory(t, store) == errors
    masked = mask_schema(t)
    if not errors:
        assert revert(t, store).text == "SELECT orders.id, customers.city FROM customers " \
            "INNER JOIN orders ON orders.customer_id = customers.id"
        assert fill_mask(masked, masked.slot_values(), store) == t
        return
    with pytest.raises(SchemaMismatchError) as reverted:
        revert(t, store)
    assert str(reverted.value) == "; ".join(errors)
    with pytest.raises(SchemaMismatchError) as filled:
        fill_mask(masked, masked.slot_values(), store)
    assert str(filled.value) == f"{errors[0]} (filled at slot {slot})"


@pytest.mark.parametrize("condition, message", [
    # once a join with no foreign-key path to `nope`
    ("(orders.id = 1 or nope.x = 2)", "table 'nope' not in database 'store'"),
    # once reverted to SQL that no database with this schema runs
    ("(orders.id = 1 or orders.nope = 2)", "column orders.nope not in database 'store'"),
    # in the order of the condition's canonical form
    ("(orders.nope = 1 or nope.x = 2 or orders.nope = 3 or customers.zip = 4)",
     "table 'nope' not in database 'store'; column customers.zip not in database 'store'; "
     "column orders.nope not in database 'store'"),
    # once reverted to SQL that SQLite cannot run: "no such column: nope"
    ("(nope = 1 or orders.id = 2)", "column 'nope' could not be qualified"),
    ("(orders.id = 1 or nope.x = 2 or id + nope > 3)", "column 'id' could not be qualified"),
])
def test_revert_checks_a_compound_condition_against_the_schema(store, condition, message):
    text = (f"df1 = df.where(element = orders.id, filter = '{condition}')\n"
            "res = df1.select(orders.id)\n")
    if message.endswith("could not be qualified"):
        with pytest.raises(TrajectorySyntaxError) as syntax:
            parse_trajectory(text)
        assert str(syntax.value) == f"line 1, column 46: compound filter: {message}"
        return
    t = parse_trajectory(text)
    assert validate_trajectory(t, store) == message.split("; ")
    with pytest.raises(SchemaMismatchError) as exc:
        revert(t, store)
    assert str(exc.value) == message
