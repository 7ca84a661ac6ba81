"""The benchmark's workloads: CLI invocations, seeded inputs and output checks.

A workload is made of parts.  Each part prepares its inputs and expected
values from the seed before anything is timed, names the ``psispec``
invocations it adds to a pass, and checks the bytes each invocation wrote.
``check`` returns None when the output is right and a one-line reason
otherwise.
"""

import json
from pathlib import Path

import numpy as np

import reference as ref

#: Grid start of ``csv-read`` and ``zero-reconstruct``: the seed picks it from
#: [GRID_START, GRID_START + GRID_WIDTH), so the work is the same for every seed.
GRID_START = 1_000_000
GRID_WIDTH = 1 << 15

#: Tolerances, well above the deviations measured on the seed code (README.md
#: lists both).
TOL_FIT_REL = 1e-8  # fit a and b against the closed-form Burg(1) fit
TOL_WELCH_REL = 1e-7  # Welch density against scipy.signal.welch
TOL_MEM_REL = 1e-8  # AR(1) density against the closed form
TOL_PSI_ABS = 1e-8  # psi and fluctuation against the longdouble sieve
TOL_ZEROS_REL = 1e-10  # zero sum against longdouble, relative to max |value|
TOL_VARIANCE_REL = 1e-2  # integral of the Welch density against the variance
ZERO_SUBSET_STEP = 100  # the zero-sum reference is checked at every 100th point


def grid_start(seed: int, salt: int) -> int:
    rng = np.random.default_rng([seed, salt])
    return GRID_START + int(rng.integers(GRID_WIDTH))


def read_csv(data: bytes, n_cols: int) -> tuple[list[str], np.ndarray]:
    """``#`` lines and header (as text) and the data rows as an array."""
    text = data.decode("ascii")
    head = []
    pos = 0
    while True:
        end = text.index("\n", pos)
        line = text[pos:end]
        head.append(line)
        pos = end + 1
        if not line.startswith("#"):
            break
    body = text[pos:]
    values = np.array(body.replace(",", " ").split(), dtype=np.float64)
    n_rows = body.count("\n")
    if values.size != n_rows * n_cols:
        raise ValueError(f"expected {n_cols} fields on each of {n_rows} rows")
    return head, values.reshape(n_rows, n_cols)


def max_rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def within_ulps(got: np.ndarray, want: np.ndarray, scale: np.ndarray, ulps: int) -> bool:
    return bool(np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(scale))))


class SieveFit:
    """The headline computation: fit and a Welch spectrum of psi at N = 10^7."""

    name = "sieve-fit"
    N = 10_000_000
    SEGMENT = 8192

    def prepare(self, seed, work, src):
        self.outputs = [work / "fit.json", work / "welch.csv"]
        series = ref.demean(ref.fluctuation_grid(2, self.N))
        self.fit = ref.power_law(*ref.ar1_psd(*ref.burg1(series)))
        self.welch = ref.welch(series, self.SEGMENT)
        self.variance = float(np.mean(series * series))

    def invocations(self):
        n = str(self.N)
        return [
            ["fit", "--n", n, "--method", "mem", "--out", str(self.outputs[0])],
            ["spectrum", "--n", n, "--method", "welch", "--segment",
             str(self.SEGMENT), "--out", str(self.outputs[1])],
        ]

    def check(self, index, data):
        if index == 0:
            got = json.loads(data)
            for key in ("a", "b"):
                dev = abs(got[key] - self.fit[key]) / abs(self.fit[key])
                if not dev <= TOL_FIT_REL:
                    return f"fit {key} deviates by {dev:.3g} (relative)"
            if got["n_points"] != self.fit["n_points"]:
                return f"fit used {got['n_points']} points, expected {self.fit['n_points']}"
            if (got["f_min"], got["f_max"]) != ref.FIT_BAND:
                return "fit band is not the default band"
            return None
        head, table = read_csv(data, 2)
        if head[-1] != "f,P" or "# method=welch" not in head:
            return "welch spectrum header is wrong"
        f_ref, p_ref = self.welch
        if table.shape[0] != f_ref.size or not np.array_equal(table[:, 0], f_ref):
            return "welch frequency grid differs from scipy's"
        dev = max_rel(table[:, 1], p_ref)
        if not dev <= TOL_WELCH_REL:
            return f"welch density deviates from scipy by {dev:.3g} (relative)"
        integral = float(np.sum(table[:, 1])) * f_ref[1]
        if not abs(integral / self.variance - 1.0) <= TOL_VARIANCE_REL:
            return f"welch density integrates to {integral:.6g}, variance {self.variance:.6g}"
        return None


class SampleWrite:
    """17-digit CSV formatting of a 10^6-point sample over a cheap sieve."""

    name = "sample-write"
    N = 1_000_000

    def prepare(self, seed, work, src):
        self.outputs = [work / "sample.csv"]
        x = np.arange(2, 2 + self.N)
        self.x = x.astype(np.float64)
        self.psi = ref.psi_grid(2, self.N).astype(np.float64)
        self.smooth = ref.smooth(x).astype(np.float64)

    def invocations(self):
        return [["sample", "--n", str(self.N), "--out", str(self.outputs[0])]]

    def check(self, index, data):
        head, t = read_csv(data, 4)
        want = ["# psispec sample", f"# n={self.N} x_start=2 dx=1", "x,psi,smooth,fluc"]
        if head != want:
            return f"sample header is {head!r}"
        if t.shape[0] != self.N or not np.array_equal(t[:, 0], self.x):
            return "sample x column is not 2, 3, ..., N + 1"
        for col, name, want_col in ((1, "psi", self.psi), (2, "smooth", self.smooth)):
            dev = float(np.max(np.abs(t[:, col] - want_col)))
            if not dev <= TOL_PSI_ABS:
                return f"sample {name} deviates by {dev:.3g}"
        if not within_ulps(t[:, 3], t[:, 1] - t[:, 2], t[:, 1], 2):
            return "sample rows break fluc = psi - smooth"
        return None


class CsvRead:
    """The read side of the text layer: a MEM spectrum of a 10^6-row sample CSV."""

    name = "csv-read"
    N = 1_000_000

    def prepare(self, seed, work, src):
        self.input = work / "input.csv"
        self.outputs = [work / "mem.csv"]
        x0 = grid_start(seed, 1)
        x = np.arange(x0, x0 + self.N)
        psi = ref.psi_grid(x0, self.N)
        smooth = ref.smooth(x)
        fluc = (psi - smooth).astype(np.float64)
        rows = zip(x.tolist(), psi.astype(np.float64).tolist(),
                   smooth.astype(np.float64).tolist(), fluc.tolist())
        with open(self.input, "w") as fh:
            fh.write(f"# psispec sample\n# n={self.N} x_start={x0} dx=1\nx,psi,smooth,fluc\n")
            fh.write("".join(f"{a},{b:.17g},{c:.17g},{d:.17g}\n" for a, b, c, d in rows))
        self.freqs, self.power = ref.ar1_psd(*ref.burg1(ref.demean(fluc)))

    def invocations(self):
        return [["spectrum", "--input", str(self.input), "--method", "mem",
                 "--out", str(self.outputs[0])]]

    def check(self, index, data):
        head, t = read_csv(data, 2)
        for line in ("# method=mem", "# order=1", f"# n_samples={self.N}"):
            if line not in head:
                return f"mem spectrum metadata lacks {line!r}"
        if t.shape[0] != self.freqs.size or max_rel(t[:, 0], self.freqs) > 1e-15:
            return "mem frequency grid differs from the default log grid"
        dev = max_rel(t[:, 1], self.power)
        if not dev <= TOL_MEM_REL:
            return f"mem density deviates from the closed form by {dev:.3g} (relative)"
        return None


class ZeroReconstruct:
    """The zeta zero-pair sum: 5000 points above 10^6 times 2000 zeros."""

    name = "zero-reconstruct"
    N = 5000
    K = 2000

    def prepare(self, seed, work, src):
        self.outputs = [work / "recon.csv"]
        self.x0 = grid_start(seed, 2)
        self.points = self.x0 + 0.5 + np.arange(self.N - 1)
        self.direct = ref.fluctuation_between(self.points)
        ordinates = ref.load_ordinates(src / "psispec" / "data" / "zeta_zeros_2000.txt")
        self.subset = slice(0, None, ZERO_SUBSET_STEP)
        self.zeros = ref.zero_sum(self.points[self.subset], ordinates[: self.K])

    def invocations(self):
        return [["reconstruct", "--n", str(self.N), "--x-start", str(self.x0),
                 "--K", str(self.K), "--out", str(self.outputs[0])]]

    def check(self, index, data):
        head, t = read_csv(data, 4)
        if (len(head) != 4 or head[0] != "# psispec reconstruct"
                or not (head[1].startswith("# zeros=") and head[1].endswith(f" K={self.K}"))
                or head[2] != f"# x_start={self.x0} n={self.N}"
                or head[3] != "x,fluc_direct,fluc_zeros,abs_err"):
            return f"reconstruct header is {head!r}"
        if t.shape[0] != self.points.size or not np.array_equal(t[:, 0], self.points):
            return "reconstruct points are not the half-integers of the range"
        dev = float(np.max(np.abs(t[:, 1] - self.direct)))
        if not dev <= TOL_PSI_ABS:
            return f"fluc_direct deviates from the sieve reference by {dev:.3g}"
        got = t[self.subset, 2]
        dev = float(np.max(np.abs(got - self.zeros)) / np.max(np.abs(self.zeros)))
        if not dev <= TOL_ZEROS_REL:
            return f"fluc_zeros deviates from the longdouble sum by {dev:.3g}"
        scale = np.maximum(np.abs(t[:, 1]), np.abs(t[:, 2]))
        if not within_ulps(t[:, 3], np.abs(t[:, 1] - t[:, 2]), scale, 2):
            return "reconstruct rows break abs_err = |fluc_direct - fluc_zeros|"
        return None


class Workload:
    """Parts run back to back as one pass.

    Each part prepares its inputs and expected values, names its
    invocations, which write ``outputs`` in order, and checks their bytes.
    """

    def __init__(self, name: str, parts: list):
        self.name = name
        self.parts = parts

    def prepare(self, seed: int, work: Path, src: Path) -> None:
        for part in self.parts:
            part.prepare(seed, work, src)
        self.outputs = [out for part in self.parts for out in part.outputs]

    def invocations(self) -> list[list[str]]:
        return [args for part in self.parts for args in part.invocations()]

    def labels(self) -> list[str]:
        return [f"{part.name}: {args[0]}" for part in self.parts for args in part.invocations()]

    def check(self, index: int, data: bytes) -> str | None:
        for part in self.parts:
            if index < len(part.outputs):
                return part.check(index, data)
            index -= len(part.outputs)
        raise IndexError(index)


#: Two workloads, not one per part: on this shared machine 20-second runs
#: of a single text part spread by up to 0.23 between runs, and the run
#: budget allows 30-second runs for two workloads.
WORKLOADS = {
    "numeric": lambda: Workload("numeric", [SieveFit(), ZeroReconstruct()]),
    "text-io": lambda: Workload("text-io", [SampleWrite(), CsvRead()]),
}
