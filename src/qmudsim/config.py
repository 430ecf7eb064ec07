"""Central numeric limits and tolerances shared across the package."""

# State vectors must stay normalized to this tolerance after every operation.
NORM_TOL = 1e-10

# Frobenius tolerance for the U†U = I check on dense unitary construction.
UNITARY_TOL = 1e-9

# Threshold on |a00*a11 - a01*a10| below which a 2-qubit state counts as a
# product state.
PRODUCT_TOL = 1e-9

# Largest register the simulator will allocate (2^24 amplitudes).
MAX_QUBITS = 24

# Dense matrices above this dimension are refused; larger transforms must use
# the diagonal phase form.
MAX_DENSE_DIM = 1024

# Default seed for CLI runs and demos; --seed overrides.
DEFAULT_SEED = 20120917
