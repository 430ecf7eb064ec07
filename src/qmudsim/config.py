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

# Most amplitude updates ((k + 1)·N) a Grover register evolution may take.
# A step with its measurement costs about 90 ns per amplitude (N = 2^16 to
# 2^22 on a 2-vCPU VM), so this bounds a curve at about 6.5 minutes; the
# default curve (k up to the optimal count) fits up to N = 2^21.
MAX_GROVER_UPDATES = 1 << 32

# Dense matrices above this dimension are refused; larger transforms must use
# the diagonal phase form.
MAX_DENSE_DIM = 1024

# Default seed for CLI runs and demos; --seed overrides.
DEFAULT_SEED = 20120917
