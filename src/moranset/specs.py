"""Declarative descriptions of homogeneous Moran constructions.

A construction is driven by four per-level sequences (child count n_k,
contraction ratio c_k, left boundary gap L_k, right boundary gap R_k) plus a
policy that distributes the per-parent interior slack over the n_k - 1
interior gaps.  Everything is exact: sequence values are integers or
`fractions.Fraction` and the interior gaps of every parent sum to the
level slack exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import (ConfigError, DomainError, InconsistentSpecError,
                     InvalidSpecError, RuleEvalError)

#: Gaps drawn by the seeded policy are integer weights in [1, WEIGHT_SPAN],
#: normalized exactly; the span bounds the denominators of generated gaps.
WEIGHT_SPAN = 2**30
_SPAN_BITS = WEIGHT_SPAN.bit_length()


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or "p" (or pass through ints/Fractions) into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational literal {text!r}: {exc}") from exc


def format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class SequenceRule:
    """A total function of the level index k >= 1.

    kinds:
      constant        -- its one value for every k
      periodic        -- values[(k-1) % len(values)]
      explicit-prefix -- values[k-1]; evaluation past the prefix is an error
      table-function  -- func(k); func must be deterministic
    """

    kind: str
    values: tuple = ()
    func: Callable[[int], int | Fraction] | None = None
    name: str = "rule"

    def __post_init__(self):
        if self.kind not in ("constant", "periodic", "explicit-prefix", "table-function"):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
        if self.kind == "table-function":
            if self.func is None:
                raise ConfigError("table-function rule needs func")
        elif self.kind == "constant" and len(self.values) != 1:
            raise ConfigError(f"rule {self.name!r}: a constant rule takes exactly "
                              f"one value, got {len(self.values)}")
        elif not self.values:
            raise ConfigError(f"{self.kind} rule needs at least one value")

    def __call__(self, k: int):
        if k < 1:
            raise RuleEvalError(self.name, k, "levels start at 1")
        if self.kind == "constant":
            return self.values[0]
        if self.kind == "periodic":
            return self.values[(k - 1) % len(self.values)]
        if self.kind == "explicit-prefix":
            if k > len(self.values):
                raise RuleEvalError(self.name, k, f"prefix has {len(self.values)} entries")
            return self.values[k - 1]
        return self.func(k)


def constant(value, name="rule") -> SequenceRule:
    return SequenceRule("constant", (value,), name=name)


@dataclass(frozen=True)
class GapPolicy:
    """Distributes the interior slack of one parent over its interior gaps.

    Boundary gaps are never produced here; they are always the L/R rules.
    Every kind is a weight vector, and the gaps split the slack in
    proportion to it.  kinds:
      uniform       -- all weights 1
      weighted      -- a fixed rational weight cycle (cycled when shorter
                       than the gap count)
      seeded-random -- positive pseudorandom integer weights drawn
                       deterministically from (seed, sigma, k)
    """

    kind: str
    weights: tuple[Fraction, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "weighted", "seeded-random"):
            raise ConfigError(f"unknown gap policy kind {self.kind!r}")
        if self.kind == "weighted":
            if not self.weights:
                raise ConfigError("weighted gap policy needs weights")
            if any(w < 0 for w in self.weights) or sum(self.weights) == 0:
                raise ConfigError("weights must be nonnegative with positive sum")
        if self.kind == "seeded-random" and self.seed is None:
            raise ConfigError("seeded-random gap policy needs a seed")
        if self.weights and self.kind != "weighted":
            raise ConfigError("gap 'weights' is read by kind 'weighted' only, "
                              f"not by kind {self.kind!r}")
        if self.seed is not None and self.kind != "seeded-random":
            raise ConfigError("gap 'seed' is read by kind 'seeded-random' only, "
                              f"not by kind {self.kind!r}")

    @property
    def node_independent(self) -> bool:
        """True when every parent at a level receives identical gaps."""
        return self.kind != "seeded-random"

    def gap_weights(self, sigma: tuple[int, ...], k: int,
                    count: int) -> tuple[int | Fraction, ...]:
        """The weights of the `count` interior gaps of parent sigma at level k."""
        if self.kind == "seeded-random":
            # randint(1, WEIGHT_SPAN)'s own draw: getrandbits under its
            # rejection loop, without its per-call overhead
            seed = f"{self.seed}|{k}|{','.join(map(str, sigma))}"
            bits = random.Random(seed).getrandbits
            w = []
            while len(w) < count:
                r = bits(_SPAN_BITS)
                if r < WEIGHT_SPAN:
                    w.append(r + 1)
            w = tuple(w)
        else:
            cycle = self.weights if self.kind == "weighted" else (1,)
            w = tuple(cycle[i % len(cycle)] for i in range(count))
        if sum(w) == 0:
            raise InvalidSpecError(
                f"gap weights {', '.join(map(str, w))} for the {count} interior "
                f"gaps at level {k} sum to zero")
        return w

    def interior_gaps(self, sigma: tuple[int, ...], k: int, count: int,
                      slack: Fraction) -> tuple[Fraction, ...]:
        """The `count` interior gaps of parent `sigma` at level k: the slack
        split exactly in proportion to `gap_weights`.  This is the `Fraction`
        reference read by the oracle, `StarState.interior_gaps` and the
        tests; `MoranSpec.child_offsets` reads the weights instead."""
        if count < 1:
            raise InvalidSpecError(f"level {k} has {count + 1} children; need >= 2")
        if slack < 0:
            raise InconsistentSpecError(f"negative slack {slack} at level {k}")
        w = self.gap_weights(sigma, k, count)
        total = sum(w)
        return tuple(slack * wi / total for wi in w)


class MoranSpec:
    """Declarative generator of one homogeneous Moran construction.

    Rules are total functions of k, so the spec describes an infinite object;
    every operation takes an explicit finite depth.
    """

    def __init__(self, n_rule: SequenceRule, c_rule: SequenceRule,
                 L_rule: SequenceRule, R_rule: SequenceRule,
                 gaps: GapPolicy,
                 interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
                 name: str = "custom"):
        self.n_rule = n_rule
        self.c_rule = c_rule
        self.L_rule = L_rule
        self.R_rule = R_rule
        self.gaps = gaps
        self.interval = (Fraction(interval[0]), Fraction(interval[1]))
        if self.interval[0] >= self.interval[1]:
            raise ConfigError("initial interval must have positive length")
        self.name = name
        self._delta = {0: self.interval[1] - self.interval[0]}
        self._count = {0: 1}
        self._scalars: dict[int, tuple[int, int, int, int]] = {}

    def n(self, k: int) -> int:
        v = self.n_rule(k)
        if not isinstance(v, int) or v < 2:
            raise InvalidSpecError(f"n_{k} = {v!r}; need an integer >= 2")
        return v

    def c(self, k: int) -> Fraction:
        v = Fraction(self.c_rule(k))
        if v <= 0:
            raise InvalidSpecError(f"c_{k} = {v}; need a positive rational")
        return v

    def L(self, k: int) -> Fraction:
        v = Fraction(self.L_rule(k))
        if v < 0:
            raise InvalidSpecError(f"L_{k} = {v}; need a nonnegative rational")
        return v

    def R(self, k: int) -> Fraction:
        v = Fraction(self.R_rule(k))
        if v < 0:
            raise InvalidSpecError(f"R_{k} = {v}; need a nonnegative rational")
        return v

    def delta(self, k: int) -> Fraction:
        """Exact length of every level-k interval (level 0 = initial interval)."""
        if k not in self._delta:
            top = max(i for i in self._delta if i <= k)
            d = self._delta[top]
            for j in range(top + 1, k + 1):
                d *= self.c(j)
                self._delta[j] = d
        return self._delta[k]

    def count(self, k: int) -> int:
        """Exact number of level-k intervals."""
        if k not in self._count:
            top = max(i for i in self._count if i <= k)
            n = self._count[top]
            for j in range(top + 1, k + 1):
                n *= self.n(j)
                self._count[j] = n
        return self._count[k]

    def slack(self, k: int) -> Fraction:
        """Interior gap budget of every level-(k-1) parent: what remains of the
        parent after the n_k children and both boundary gaps are placed."""
        den, _, _, e = self._scalars_of(k)
        return Fraction(e, den)

    def _scalars_of(self, k: int) -> tuple[int, int, int, int]:
        """(D, L_k, delta_k, slack_k), the three as integer numerators over
        one denominator D, cached per level."""
        if k not in self._scalars:
            parent, n, step, lo, hi = (self.delta(k - 1), self.n(k),
                                       self.delta(k), self.L(k), self.R(k))
            den = lcm(*(x.denominator for x in (parent, step, lo, hi)))
            parent, step, lo, hi = (x.numerator * (den // x.denominator)
                                    for x in (parent, step, lo, hi))
            e = parent - n * step - lo - hi
            if e < 0:
                raise InconsistentSpecError(
                    f"negative slack at level {k}: e_{k} = {Fraction(e, den)}; "
                    "children and boundary gaps exceed the parent length")
            self._scalars[k] = den, lo, step, e
        return self._scalars[k]

    def interior_gaps(self, sigma: tuple[int, ...], k: int) -> tuple[Fraction, ...]:
        """The `Fraction` reference split (see `GapPolicy.interior_gaps`)."""
        return self.gaps.interior_gaps(sigma, k, self.n(k) - 1, self.slack(k))

    def child_offsets(self, sigma: tuple[int, ...],
                      k: int) -> tuple[int, tuple[int, ...]]:
        """Where the n_k children of parent sigma start, relative to its left
        endpoint, as (den, nums), offset i being nums[i] / den: L_k, then
        after each child its length delta_k and the gap that follows it.

        This is the one copy of child placement.  A gap is slack_k w / W for
        its integer weight w and the weight total W, so offset i is
        (W (L_k + i delta_k) + slack_k (w_1 + ... + w_i)) / (D W) with the
        scalars over D from `_scalars_of`.  Nothing is cached here: the
        node-independent offsets are held once per spec and depth by
        `tree._prescaled`."""
        den, lo, step, slack = self._scalars_of(k)
        weights = self.gaps.gap_weights(sigma, k, self.n(k) - 1)
        scale = lcm(*(w.denominator for w in weights))
        weights = [w.numerator * (scale // w.denominator) for w in weights]
        total = sum(weights)
        nums = [lo * total]
        step *= total
        for w in weights:
            nums.append(nums[-1] + step + slack * w)
        return den * total, tuple(nums)

    def __repr__(self):
        return f"MoranSpec({self.name!r})"


@dataclass
class LevelCheck:
    k: int
    n: int | None = None
    c: Fraction | None = None
    slack: Fraction | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class ValidationReport:
    spec_name: str
    depth: int
    levels: list[LevelCheck]
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(lc.ok for lc in self.levels)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "depth": self.depth,
            "ok": self.ok,
            "error": self.error,
            "levels": [
                {"k": lc.k, "ok": lc.ok, "problems": lc.problems}
                for lc in self.levels
            ],
        }


def validate_spec(spec: MoranSpec, K: int) -> ValidationReport:
    """Check the structural constraints on every level up to K.

    Per level: n_k >= 2 integer, n_k c_k < 1, L_k, R_k >= 0, slack e_k >= 0,
    and (for node-independent policies) gap weights with a positive sum.  Rule
    evaluation failures abort with a structured error naming the level.
    """
    if K < 1:
        raise DomainError(f"depth {K} is out of range: validation needs depth >= 1")
    levels = []
    for k in range(1, K + 1):
        lc = LevelCheck(k)
        try:
            try:
                lc.n = spec.n(k)
            except InvalidSpecError as exc:
                lc.problems.append(str(exc))
            try:
                lc.c = spec.c(k)
            except InvalidSpecError as exc:
                lc.problems.append(str(exc))
            if lc.n is not None and lc.c is not None and lc.n * lc.c >= 1:
                lc.problems.append(f"n_{k} * c_{k} = {lc.n * lc.c} >= 1")
            for label, rule in (("L", spec.L), ("R", spec.R)):
                try:
                    rule(k)
                except InvalidSpecError as exc:
                    lc.problems.append(str(exc))
            if lc.ok:
                try:
                    lc.slack = spec.slack(k)
                except (InconsistentSpecError, InvalidSpecError) as exc:
                    # slack(k) needs delta(k-1), which fails if an earlier
                    # level's c was rejected
                    lc.problems.append(str(exc))
            if lc.ok and spec.gaps.node_independent:
                try:
                    spec.gaps.gap_weights((), k, lc.n - 1)
                except InvalidSpecError as exc:
                    lc.problems.append(str(exc))
        except RuleEvalError as exc:
            levels.append(lc)
            return ValidationReport(spec.name, K, levels, error=str(exc))
        levels.append(lc)
    return ValidationReport(spec.name, K, levels)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _cantor3() -> MoranSpec:
    return MoranSpec(
        constant(2, "n"), constant(Fraction(1, 3), "c"),
        constant(Fraction(0), "L"), constant(Fraction(0), "R"),
        GapPolicy("uniform"), name="cantor3")


def _dim1_binary() -> MoranSpec:
    c = SequenceRule("table-function",
                     func=lambda k: (1 - Fraction(1, 4**k)) / 2, name="c")
    return MoranSpec(
        constant(2, "n"), c,
        constant(Fraction(0), "L"), constant(Fraction(0), "R"),
        GapPolicy("uniform"), name="dim1_binary")


def _wide10() -> MoranSpec:
    return MoranSpec(
        constant(10, "n"), constant(Fraction(1, 20), "c"),
        constant(Fraction(0), "L"), constant(Fraction(0), "R"),
        GapPolicy("uniform"), name="wide10")


def _skew10(seed: int = 42) -> MoranSpec:
    return MoranSpec(
        constant(10, "n"), constant(Fraction(1, 20), "c"),
        constant(Fraction(0), "L"), constant(Fraction(0), "R"),
        GapPolicy("seeded-random", seed=seed), name="skew10")


def _padded2() -> MoranSpec:
    # Nonzero boundary gaps: every trimmed quantity differs from its base one.
    lr = SequenceRule("table-function", func=lambda k: Fraction(1, 8 * 4**k), name="LR")
    return MoranSpec(
        constant(2, "n"), constant(Fraction(1, 4), "c"),
        lr, lr, GapPolicy("uniform"), name="padded2")


_PRESETS: dict[str, Callable[..., MoranSpec]] = {
    "cantor3": _cantor3,
    "dim1_binary": _dim1_binary,
    "wide10": _wide10,
    "skew10": _skew10,
    "padded2": _padded2,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def presets() -> dict[str, MoranSpec]:
    """All built-in constructions, freshly instantiated."""
    return {name: fn() for name, fn in _PRESETS.items()}


def preset(name: str, **kwargs) -> MoranSpec:
    try:
        fn = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    return fn(**kwargs)


# ---------------------------------------------------------------------------
# Config-file loading
# ---------------------------------------------------------------------------

def _config_rational(value, where: str) -> Fraction:
    try:
        return parse_rational(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _config_list(node: dict, key: str, where: str) -> list:
    raw = node.get(key, [])
    if not isinstance(raw, list):
        raise ConfigError(f"{where} {key!r} must be a list, got {raw!r}")
    return raw


def _rule_from_config(node: dict, name: str, integer: bool) -> SequenceRule:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"rule {name!r} must be an object with a 'kind'")
    kind = node["kind"]
    if kind == "table-function":
        raise ConfigError("table-function rules are API-only, not loadable from config")
    values = []
    for v in _config_list(node, "values", f"rule {name!r}"):
        q = _config_rational(v, f"rule {name!r}")
        if integer:
            if q.denominator != 1:
                raise ConfigError(f"rule {name!r} value {v!r} is not an integer")
            q = int(q)
        values.append(q)
    return SequenceRule(kind, tuple(values), name=name)


def spec_from_config(cfg: dict, name: str = "custom") -> MoranSpec:
    """Build a MoranSpec from a parsed config mapping.

    Schema: {"n": rule, "c": rule, "L": rule, "R": rule,
             "gaps": {"kind": ..., "seed": int | "weights": [rationals]},
             "interval": {"lo": "p/q", "hi": "p/q"}}   (interval optional)
    """
    if not isinstance(cfg, dict):
        raise ConfigError("spec config must be an object with keys 'n', 'c', "
                          f"'L', 'R' and 'gaps', got {type(cfg).__name__}")
    for key in ("n", "c", "L", "R", "gaps"):
        if key not in cfg:
            raise ConfigError(f"spec config missing key {key!r}")
    gp = cfg["gaps"]
    if not isinstance(gp, dict):
        raise ConfigError(f"'gaps' must be an object with a 'kind', got {gp!r}")
    seed = gp.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        # the seed enters the gap draws as text, so 7.0 would not draw as 7
        raise ConfigError(f"gap 'seed' must be an integer, got {seed!r}")
    policy = GapPolicy(
        gp.get("kind", "uniform"),
        weights=tuple(_config_rational(w, "gap 'weights'")
                      for w in _config_list(gp, "weights", "gap")),
        seed=seed)
    iv = cfg.get("interval", {"lo": "0", "hi": "1"})
    if not isinstance(iv, dict) or not {"lo", "hi"} <= iv.keys():
        raise ConfigError(
            f"'interval' must be an object with keys 'lo' and 'hi', got {iv!r}")
    return MoranSpec(
        _rule_from_config(cfg["n"], "n", integer=True),
        _rule_from_config(cfg["c"], "c", integer=False),
        _rule_from_config(cfg["L"], "L", integer=False),
        _rule_from_config(cfg["R"], "R", integer=False),
        policy,
        interval=(_config_rational(iv["lo"], "interval 'lo'"),
                  _config_rational(iv["hi"], "interval 'hi'")),
        name=name)
