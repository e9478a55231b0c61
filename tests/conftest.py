import os

from termbench.config import BLAS_THREADS_ENV

# The tests run stages in this process and compare them with CLI launches,
# which run the BLAS libraries on one thread; so does this process. It is set
# here because numpy reads it once, as it loads, before any test module runs.
os.environ.update(dict.fromkeys(BLAS_THREADS_ENV, "1"))
