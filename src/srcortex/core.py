"""Grid data types, projection, norms and the shared model configuration.

Images are square ``(N, N)`` float arrays; activation stacks are
``(N, N, K)`` float arrays whose last axis indexes orientations
``theta_k = k * pi / K`` (axis 0 is the first spatial coordinate, axis 1
the second; orientations are periodic modulo K, identifying theta and
theta + pi).  The stack operations are pure functions of their arguments.

The block pool runs the blocked passes of the other modules on this
process's threads.  Each process has one width: the CPUs it may run on
(``os.sched_getaffinity``), or a ``run_sweep`` worker's share of them;
every FFT in the package runs on that many threads too.
The calling thread works alongside ``width - 1`` helper threads; each
claims the next part (a ``BLOCK`` of a stack, or a contiguous run of
items) from a shared counter, and the results come back in part order.
Every part is computed by the same operations whichever thread takes
it, and callers that sum over parts add the per-part sums in that
order, as one thread does, so results are equal bit for bit at any
width.  A helper allocates nothing larger than a block: glibc gives
each thread its own arena and keeps what a helper freed resident, so a
helper's scratch comes from its caller (``run_blocks``), and no thread
keeps one of its own.  The helper threads are made on first use and
made afresh in a forked child, which inherits the executor but none of
its threads.
"""

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

WC = "wc"
LHE = "lhe"
MODELS = (WC, LHE)
FORCINGS = ("continuous", "discrete-paper")
MAX_POLY_DEGREE = 15  # contrast-sigmoid fit; above it the fit is ill-conditioned
# entries per block of a blocked float64 pass: 256 KB, so a block's few
# arrays stay in a core's L2 cache between the operations on it
BLOCK = 1 << 15

_width = None  # this process's pool width, read from the CPUs on first use
_helpers = None  # (executor, thread count) of the helper threads, made on first use
_helpers_lock = threading.Lock()  # callers on several threads may make the executor at once


def cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface (macOS)
        return os.cpu_count() or 1


def pool_width() -> int:
    """Threads the block pool and every FFT run on in this process, the caller's included."""
    global _width
    if _width is None:
        _width = cpu_count()
    return _width


def set_pool_width(width: int) -> None:
    """Run this process's block pool on ``width`` threads (at least one)."""
    global _width
    _width = max(1, int(width))


def pool_threads(parts: int) -> int:
    """Threads ``run_parts`` uses for ``parts`` parts: the width, or fewer parts."""
    return max(1, min(pool_width(), parts))


def _forget_pool():
    global _width, _helpers, _helpers_lock
    _width = _helpers = None
    _helpers_lock = threading.Lock()  # another thread may have held it at the fork


os.register_at_fork(after_in_child=_forget_pool)


def _helper_executor(count: int) -> ThreadPoolExecutor:
    global _helpers
    with _helpers_lock:
        if _helpers is None or _helpers[1] < count:
            if _helpers is not None:
                _helpers[0].shutdown(wait=False)
            _helpers = ThreadPoolExecutor(count, thread_name_prefix="srcortex-block"), count
        return _helpers[0]


def run_parts(fn, parts: int, threads: int | None = None) -> list:
    """``[fn(part, thread) for part in range(parts)]``, on the block pool.

    ``thread`` is 0 on the calling thread and 1 .. threads - 1 on the
    helpers, so ``fn`` can index per-thread scratch with it.  ``threads``
    (default the pool width) is capped at ``pool_threads(parts)``.  The
    threads claim parts in increasing order; the call returns once every
    part is done, and raises an exception that a part raised, if any.
    """
    threads = pool_threads(parts) if threads is None else min(threads, pool_threads(parts))
    if threads == 1:
        return [fn(part, 0) for part in range(parts)]
    results = [None] * parts
    claims = iter(range(parts))
    lock = threading.Lock()

    def work(thread):
        while True:
            with lock:
                part = next(claims, None)
            if part is None:
                return
            results[part] = fn(part, thread)

    executor = _helper_executor(threads - 1)
    # each helper runs in a copy of the caller's context, so that numpy's
    # floating-point error state (np.errstate) holds for every part
    helpers = [executor.submit(contextvars.copy_context().run, work, thread)
               for thread in range(1, threads)]
    try:
        work(0)
    finally:
        wait(helpers)  # they may still be writing into the caller's arrays
    for helper in helpers:
        helper.result()
    return results


def split(count: int, entries: int, threads: int) -> list:
    """``range(count)`` as contiguous ``(start, stop)`` parts for ``threads`` threads.

    Items of ``entries`` entries each are grouped into about ``BLOCK``
    entries per part or fewer, and the number of parts is rounded up to
    a multiple of ``threads`` so that the threads get equal shares.
    """
    blocks = -(-count * entries // BLOCK)
    parts = max(1, min(count, threads * -(-blocks // threads)))
    bounds = [count * i // parts for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def run_spans(fn, count: int, entries: int) -> list:
    """``fn(start, stop)`` over ``split(count, entries, width)``, on the block pool, in order."""
    spans = split(count, entries, pool_width())
    return run_parts(lambda part, _: fn(*spans[part]), len(spans))


def _thread_scratch(buffer, parts: int, shape, dtype) -> list:
    """Scratch arrays of ``shape`` and ``dtype`` for a pass of ``parts`` parts, one per thread.

    ``buffer`` is a C-contiguous array that its owner does not read
    while the arrays are in use, or None.  As many arrays as its memory
    holds, up to ``pool_threads(parts)``, are carved from it in thread
    order, the calling thread's first; where it holds none, the calling
    thread gets one new array.
    """
    raw = np.empty(0, np.uint8) if buffer is None else buffer.reshape(-1).view(np.uint8)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    fit = min(pool_threads(parts), raw.size // nbytes)
    if fit == 0:
        return [np.empty(shape, dtype)]
    return [raw[i * nbytes : (i + 1) * nbytes].view(dtype).reshape(shape) for i in range(fit)]


def run_blocks(fn, size: int, spare=None, rows: int = 0, dtype=np.float64) -> list:
    """``fn(block, scratch)`` for each ``BLOCK``-entry slice of ``range(size)``, on the block pool.

    The results come back in block order, so a caller that sums over
    blocks adds their sums in that order, as one thread does.  With
    ``rows`` 0, ``scratch`` is None and the pass runs on the pool width.
    Otherwise ``scratch`` is the thread's own ``(rows, min(BLOCK,
    size))`` array of ``dtype``, carved from ``spare``, a C-contiguous
    buffer that its owner does not read during the call, and the pass
    runs on as many threads as ``spare`` holds such arrays, so a helper
    runs only on lent memory.  Where ``spare`` holds none, or is None,
    the calling thread runs the pass alone on one new array.
    """
    parts = -(-size // BLOCK)
    if rows and size:
        scratch = _thread_scratch(spare, parts, (rows, min(BLOCK, size)), dtype)
    else:
        scratch = [None] * pool_threads(parts)

    def part(index, thread):
        return fn(slice(index * BLOCK, (index + 1) * BLOCK), scratch[thread])

    return run_parts(part, parts, len(scratch))


def as_image(arr) -> np.ndarray:
    """Validate and return a square 2D float image."""
    img = np.asarray(arr, dtype=float)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"image must be square 2D, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite values")
    return img


def as_stack(arr) -> np.ndarray:
    """Validate and return an (N, N, K) activation stack."""
    a = np.asarray(arr, dtype=float)
    if a.ndim != 3 or a.shape[0] != a.shape[1]:
        raise ValueError(f"stack must have shape (N, N, K), got {a.shape}")
    if a.shape[2] < 1:
        raise ValueError("stack needs at least one orientation")
    if not np.all(np.isfinite(a)):
        raise ValueError("stack contains non-finite values")
    return a


def project(a) -> np.ndarray:
    """Project a stack back to the retinal plane: plain sum over orientations."""
    return as_stack(a).sum(axis=2)


def relative_change(a, b, spare=None) -> float:
    """``||a - b|| / ||a||`` with the Euclidean norm over all entries.

    Returns 0 when both arguments vanish and +inf when only ``a`` does.
    Both arrays are read once, a block at a time (``run_blocks``, whose
    scratch ``spare`` lends), with no full-size difference array: each
    block's difference is formed in the thread's scratch, and the
    blocks' squared norms are added in block order.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b = a.ravel(), b.ravel()

    def block(part, scratch):
        x = a[part]
        d = np.subtract(x, b[part], out=scratch[0, : x.size])
        return float(d @ d), float(x @ x)

    diff = denom = 0.0
    for d, x in run_blocks(block, a.size, spare, 1):
        diff += d
        denom += x
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return math.sqrt(diff) / math.sqrt(denom)


def renormalize(img) -> np.ndarray:
    """Affinely rescale an image to span [0, 1].

    Constant images map to all 0.5 by convention.
    """
    img = np.asarray(img, dtype=float)
    lo = float(img.min())
    hi = float(img.max())
    if hi == lo:
        return np.full_like(img, 0.5)
    return (img - lo) / (hi - lo)


@dataclass
class ModelConfig:
    """Scalar parameters of the activation models.

    Fields follow the evolution equation
    ``da/dt = -(1 + lam) a + lam a0 + mu + (s/2M) * interaction`` with
    the sign s = +1 and the interaction normalizer M = 1 both fixed:

    - ``model``: "wc" (sigmoid of activity) or "lhe" (sigmoid of contrast)
    - ``lam``: fidelity weight (>= 0)
    - ``alpha``: sigmoid slope (> 1)
    - ``sigma_mu``: std in pixels of the Gaussian local-mean filter
    - ``dt``: gradient-descent step, constrained to dt <= 1/(1 + lam)
    - ``dtau``: inner step of the heat solver
    - ``tau``: total diffusion time; must be an integer multiple of dtau
    - ``tol``: relative-change stopping threshold
    - ``poly_degree``: odd degree of the contrast-sigmoid fit (LHE only)
    - ``forcing``: "continuous" uses lam*a0 + mu, "discrete-paper" swaps
      the roles to a0 + lam*mu

    ``paper(model)`` holds the values of each model's gratings figure.
    """

    model: str
    lam: float
    alpha: float
    sigma_mu: float
    dt: float
    dtau: float
    tau: float
    tol: float = 1e-4
    poly_degree: int = 9
    max_iters: int = 500
    forcing: str = "continuous"

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"model must be 'wc' or 'lhe', got {self.model!r}")
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type is float and not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        check_fit(self.alpha, self.poly_degree)
        if self.sigma_mu <= 0:
            raise ValueError("sigma_mu must be > 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        limit = 1.0 / (1.0 + self.lam)
        if self.dt > limit * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} violates stability bound 1/(1+lam)={limit}")
        if self.dtau <= 0:
            raise ValueError("dtau must be > 0")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        steps_of(self.tau, self.dtau)  # raises if tau is not a multiple
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.forcing not in FORCINGS:
            raise ValueError(f"unknown forcing {self.forcing!r}")

    @classmethod
    def paper(cls, model: str) -> "ModelConfig":
        """The model's parameters for the N = 200 gratings figure.

        WC and LHE differ in lam, alpha, sigma_mu and dt; both run tau = 5
        in steps dtau = 0.01 under the discrete-paper forcing, with the
        defaults for the rest.  The values are the N = 200 ones; callers
        that run a smaller figure scale them themselves.  An unknown
        model gets LHE's values and is rejected by ``__post_init__``.
        """
        wc = model == WC
        return cls(
            model=model,
            lam=0.01 if wc else 2.0,
            alpha=20.0 if wc else 8.0,
            sigma_mu=6.5 if wc else 1.0,
            dt=0.1 if wc else 0.15,
            dtau=0.01,
            tau=5.0,
            forcing="discrete-paper",
        )

    @property
    def fidelity_weights(self) -> tuple[float, float]:
        """Weights of the stimulus a0 and of its local mean mu in the forcing."""
        if self.forcing == "continuous":
            return self.lam, 1.0
        return 1.0, self.lam  # the discrete-compatibility role swap

    @staticmethod
    def beta_for(n_pixels: int, n_orient: int) -> float:
        """Coherency K/(N^2 sqrt 2) on an N x K grid; ``heat``'s docstring states its strength."""
        return n_orient / (n_pixels**2 * math.sqrt(2.0))


def check_fit(alpha: float, degree: int) -> None:
    """The contrast fit's rules: slope alpha > 1, odd degree in [1, MAX_POLY_DEGREE]."""
    if alpha <= 1:
        raise ValueError("alpha must be > 1")
    if degree < 1 or degree % 2 == 0 or degree > MAX_POLY_DEGREE:
        raise ValueError(f"poly_degree must be odd and in [1, {MAX_POLY_DEGREE}], got {degree}")


def steps_of(tau: float, dtau: float) -> int:
    """Number of inner steps in ``tau``; rejects non-integer multiples."""
    steps = tau / dtau
    m = int(round(steps)) if math.isfinite(steps) else -1
    if m < 0 or abs(tau - m * dtau) > 1e-9 * max(1.0, abs(tau)):
        raise ValueError(f"tau={tau} is not an integer multiple of dtau={dtau}")
    return m
