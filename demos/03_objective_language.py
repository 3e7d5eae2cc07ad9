"""The objective language: parsing, validation, canonical content.

Operator goals are one-line objectives over sum-comprehensions. The
parser rejects what the text alone decides (unknown names, a variable
in a position of another set) with a position; ``check`` expands an
objective over a concrete instance and rejects what the model could
not take. The expansion makes two spellings of the same goal literally
the same monomial list.
"""

from fleetopt.dsl import (
    DslError,
    canonicalize,
    check,
    ground_truth_catalog,
    jaro_winkler,
    parse,
    result_similarity,
    text_similarity,
)
from fleetopt.fleet import FleetInstance

inst = FleetInstance(
    supply_areas=(0, 1),
    demand_areas=(8, 9),
    soc_levels=3,
    supply=[[2, 1, 3], [0, 2, 2]],
    demand=[[1, 2, 0], [2, 0, 1]],
    distance_km=[[4.0, 2.0], [3.0, 1.0]],
)

src = "maximize sum(i in I, j in J, k in K) ((k + 1) * x[i,j,k])"
form, _ = check(parse(src), inst)
degree = max(len(tokens) for _, tokens in form.monomials)
print(f"{src}\n  -> {len(form.monomials)} monomials, degree {degree}")

print("\ncanonical expansion (level weights become plain coefficients):")
print(" ", canonicalize(parse("maximize sum(k in K) ((k + 1) * x[0,8,k])"), inst).as_string())

# a rejected objective gets one diagnostic: the parser's, with a position,
# or the first rule its expansion breaks
for bad in (
    "maximize sum(i in I) y[i]",                                    # unknown name
    "maximize sum(i in I, j in J, k in K) x[j,i,k]",                # I and J swapped
    "maximize sum(i in I, j in J, k in K) (x[i,j,k] * x[i,j,k])",   # not u_hat * x
    "maximize sum(i in I, j in J) x[i,j,3]",                        # no level 3
):
    try:
        _, diagnostics = check(parse(bad), inst)
    except DslError as err:
        diagnostics = [str(err)]
    print(f"\nrejected: {bad}\n  -> {diagnostics}")

# two spellings, one content: binding order cannot matter
a = parse("maximize sum(j in J, k in K) u_hat[j,k]")
b = parse("maximize sum(k in K, j in J)  u_hat[j, k]")
print("\nequivalent rewrites:")
print("  text similarity   ", round(text_similarity(a.source, b.source), 4))
print("  result similarity ", result_similarity(a, b, inst))

# filtering away the bottom charge level changes the content
c = parse("maximize sum(j in J, k in K if k > 0) u_hat[j,k]")
print("filtered variant:")
print("  result similarity ", round(result_similarity(c, a, inst), 4))

print("\nJaro-Winkler reference values:")
print("  MARTHA/MARHTA:", round(jaro_winkler("MARTHA", "MARHTA"), 4))
print("  DWAYNE/DUANE: ", round(jaro_winkler("DWAYNE", "DUANE"), 4))

catalog = ground_truth_catalog()
print(f"\nreference catalog: {len(catalog)} entries, "
      f"{sum(not e.linear for e in catalog)} nonlinear")
for entry in catalog[:4]:
    print(f"  {entry.query:45s} linear={entry.linear}")
