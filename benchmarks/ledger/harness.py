"""Measurement plumbing shared by the ledger's entry points.

Everything here is about the *process* being measured, not about the
runtime under test: pinning the environment so rows compare like for
like, reading CPU / RSS / thread counts from ``/proc``, order
statistics, and the leak checks run after every workload.

Import this module (and call :func:`pin_process`) before numpy: BLAS
reads its thread-count variables once, at load time.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
#: Scratch space for sockets, child reports and per-run JSON. Inside
#: the checkout (the benchmark may write nowhere else) and git-ignored.
RUN_DIR = LEDGER_DIR / ".run"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_CPUS = 2

_CLK_TCK = os.sysconf("SC_CLK_TCK")

# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def refuse(why: str) -> SystemExit:
    """The environment cannot produce comparable rows: exit status 2."""
    print(f"ledger: refusing to run: {why}", file=sys.stderr)
    return SystemExit(2)


def pin_process() -> str:
    """Pin BLAS threads and the allocator; refuse unfit environments.

    Returns the allocator policy in effect, for the fingerprint.

    The allocator is told to keep what it is given (no ``mmap`` for
    blocks under 32 MiB, no trimming, one arena). The workloads that
    build a fresh runtime per op free and reallocate tens of MiB of
    tiles each time; on a microVM with free-page reporting the first
    touch of a page the guest handed back costs ~10 ms/MiB of *system*
    time, which made one Cholesky op swing 0.14-0.6 s. Keeping the heap
    measures the program instead of the hypervisor.
    """
    for var in BLAS_ENV:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            raise refuse(f"{var}={value}; BLAS/OpenMP threads must be pinned to 1")
    if "numpy" in sys.modules:
        raise refuse("numpy was imported before the BLAS thread pin took effect")
    if cpu_count() < MIN_CPUS:
        raise refuse(f"{cpu_count()} CPU(s) available, need at least {MIN_CPUS}")
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default"
    kept = (
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        and mallopt(_M_TRIM_THRESHOLD, 1 << 30)
        and mallopt(_M_ARENA_MAX, 1)
    )
    return "keep-heap" if kept else "default"


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout's own ``src/``.

    The benchmark measures the program in *this* checkout; without its
    source there is nothing to measure, so that is an error, never a
    fallback to some other installed copy.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"ledger: no program under test at {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC_DIR))


# -- fingerprint --------------------------------------------------------------


def git_commit() -> str:
    """HEAD's commit id read straight from ``.git`` (no subprocess)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int, malloc_policy: str) -> Dict[str, object]:
    """What must match before two result files may be compared."""
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError):
        pass
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": 1,
        "malloc": malloc_policy,
        # What ProcessBackend picks when not told otherwise.
        "start_method": "fork" if "fork" in methods else "spawn",
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed,
        "commit": git_commit(),
    }


# -- order statistics ---------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``pct`` a multiple of 10, or 99)."""
    if len(values) < 2:
        return float(values[0])
    if pct == 99:
        return statistics.quantiles(values, n=100, method="inclusive")[98]
    return statistics.quantiles(values, n=10, method="inclusive")[pct // 10 - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


# -- /proc readers ------------------------------------------------------------


def _status_fields(pid: int) -> Dict[str, str]:
    out = {}
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                out[key] = rest.strip()
    except OSError:
        pass
    return out


def proc_threads(pid: int) -> int:
    return int(_status_fields(pid).get("Threads", "0") or 0)


def proc_peak_rss_mb(pid: int) -> float:
    """The kernel's own high-water mark (``VmHWM``), so no sampling gap."""
    field = _status_fields(pid).get("VmHWM", "0 kB")
    return int(field.split()[0]) / 1024.0  # kB -> MiB


def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of one live process (10 ms ticks)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            rest = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(rest[11]) + int(rest[12])) / _CLK_TCK


class ThreadSampler:
    """Track the peak OS thread count of a process tree while it runs.

    ``/proc`` keeps no high-water mark for threads, so a daemon thread
    polls. It lives in the harness process; for in-process workloads it
    is itself one of the threads counted (a constant +1).
    """

    def __init__(self, pids: Callable[[], Iterable[int]], interval_s: float = 0.05):
        self._pids = pids
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="ledger-sampler", daemon=True
        )
        self.peak = 0

    def _sample(self) -> None:
        self.peak = max(self.peak, sum(proc_threads(p) for p in self._pids()))

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "ThreadSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._sample()
        self._stop.set()
        self._thread.join()


# -- leak checks --------------------------------------------------------------


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def own_children() -> List[int]:
    """Every child of this process, running or dead but not yet reaped."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, patience_s: float) -> None:
    """Wait for child ``pid`` to end; kill it once patience runs out."""
    import signal

    deadline = time.monotonic() + patience_s
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.005)
    except OSError:
        pass  # not ours, or reaped already


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's tracker process.

    The process backend's first shared-memory segment starts it, and it
    only exits once it sees this process gone: it outlives every run,
    and where nothing reaps orphans it stays behind as a zombie.
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is None or getattr(tracker, "_fd", None) is None:
        return
    pid = tracker._pid
    # Its "parent is alive" pipe: EOF ends its loop, once every forked
    # worker holding a copy of the descriptor is gone too.
    os.close(tracker._fd)
    tracker._fd = tracker._pid = None
    _reap(pid, patience_s=5.0)


def kill_children() -> None:
    """Last thing before exit, on every path: nothing outlives the run."""
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    for pid in own_children():
        if pid != getattr(tracker, "_pid", None):
            _reap(pid, patience_s=0.0)
    stop_resource_tracker()


def die_with_parent() -> None:
    """Have the kernel kill this (child) process if its parent dies."""
    import signal

    pr_set_pdeathsig = 1
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig, int(signal.SIGKILL))
    except (OSError, AttributeError):
        pass


def leaks(shm_before: set, child_pids: Iterable[int], paths: Iterable[Path]) -> List[str]:
    """What a torn-down workload left behind, as readable problems."""
    problems = []
    stop_resource_tracker()
    for pid in sorted({*own_children(), *child_pids}):
        if os.path.exists(f"/proc/{pid}"):
            problems.append(f"process {pid} still alive or not reaped")
    for path in paths:
        if path.exists():
            problems.append(f"{path.name} left on disk")
    for name in sorted(shm_entries() - shm_before):
        problems.append(f"/dev/shm/{name} left behind")
    main = threading.main_thread()
    for t in threading.enumerate():
        if t is not main and not t.daemon:
            problems.append(f"non-daemon thread {t.name} still running")
    return problems


# -- watchdog -----------------------------------------------------------------


def arm_watchdog(seconds: float) -> None:
    """Hard-stop a hung run: kill and reap the children, then this process.

    The driver gives a run 180 s; a wedged runtime must not turn into an
    orphaned server and a timeout with no diagnosis.
    """

    def abort() -> None:
        import faulthandler

        print(f"ledger: watchdog fired after {seconds:.0f} s", file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr)
        kill_children()
        os._exit(70)

    timer = threading.Timer(seconds, abort)
    timer.daemon = True
    timer.start()


# -- result files -------------------------------------------------------------


def write_json(path: Union[str, Path], payload: object, compact: bool = False) -> None:
    """Write atomically; ``compact`` for span dumps (hundreds of MB indented)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    indent = None if compact else 1
    tmp.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
    tmp.replace(path)


def load_benchmark_spec() -> Dict[str, object]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
