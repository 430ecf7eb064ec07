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

# Most work a call may ask for (errors.run_size).  A unit is one amplitude
# update of a Grover step with its measurement, about 90 ns on a 2-vCPU VM,
# so a call takes at most about 6.5 minutes; README lists each command's
# work per item.
MAX_WORK = 1 << 32

# Most items a batch holds (errors.run_size), and most scores: a K = 20
# table (8 MiB) fills BATCH_SCORES.  At K = 10 a qmud-agree search took 11
# us at 200 searches a call and 6.9 us at 4,096 (medians, 2-vCPU VM).
MAX_BATCH = 4096
BATCH_SCORES = 1 << 20

# Dense matrices above this dimension are refused; larger transforms must use
# the diagonal phase form.
MAX_DENSE_DIM = 1024

# Default seed for CLI runs and demos; --seed overrides.
DEFAULT_SEED = 20120917
