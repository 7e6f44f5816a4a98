"""Run-file ingestion: one structured-text file drives every command.

The file is JSON with sections potential / profile / solver plus an
output directory. Parsing is strict: unknown keys, wrong types, and
out-of-range values are rejected at load with the offending key and,
where it can be recovered from the source text, its line number. A
parsed configuration round-trips losslessly through to_dict().
"""

from __future__ import annotations

import json

from .errors import ConfigurationError
from .hill import PeriodicPotential
from .solver import SolverConfig
from .window import PerturbationProfile

_TOP_KEYS = {"potential", "profile", "solver", "output_dir"}
_POTENTIAL_KEYS = {"mean", "cos_coeffs", "sin_coeffs", "allow_constant"}
_PROFILE_KEYS = {"mu", "nu", "bumps", "allow_constant"}
_SOLVER_KEYS = ("epsilon", "zeta", "e_window")   # all required


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(count=None):
    return lambda v: (isinstance(v, (list, tuple)) and count in (None, len(v))
                      and all(map(_is_number, v)))


_NUMBER = (_is_number, "a number")
_NUMBER_ARRAY = (_numbers(), "an array of numbers")
# key -> (test of its value, what the test admits)
_TYPES = {
    "mean": _NUMBER, "cos_coeffs": _NUMBER_ARRAY, "sin_coeffs": _NUMBER_ARRAY,
    "allow_constant": (lambda v: isinstance(v, bool), "true or false"),
    "mu": _NUMBER, "nu": _NUMBER,
    "bumps": (lambda v: isinstance(v, (list, tuple)) and all(map(_numbers(3), v)),
              "an array of [height, center, width] number triples"),
    "epsilon": _NUMBER, "zeta": _NUMBER,
    "e_window": (_numbers(2), "a two-number array [lo, hi]"),
    "output_dir": (lambda v: isinstance(v, str) and v != "", "a nonempty string"),
}


def _key_line(text, key, section=None):
    """1-based line of the first occurrence of "key" in the source (after
    that of "section", when given), or None."""
    start = max(text.find('"%s"' % section), 0) if section else 0
    pos = text.find('"%s"' % key, start)
    if pos < 0:
        return None
    return text.count("\n", 0, pos) + 1


def _at(source, text, key, section=None):
    line = _key_line(text, key, section)
    if line is None:
        return "%s: " % source
    return "%s:%d: " % (source, line)


def _check_keys(section, data, allowed, source, text):
    """Every key of the section known and every value of its JSON type."""
    anchor = None if section == "top-level" else section
    for key, value in data.items():
        if key not in allowed:
            raise ConfigurationError(
                "%sunknown key %r in the %s section (allowed: %s)"
                % (_at(source, text, key, anchor), key, section,
                   ", ".join(sorted(allowed))))
        if key in _TYPES and not _TYPES[key][0](value):
            raise ConfigurationError(
                "%s%s must be %s, got %s" % (_at(source, text, key, anchor), key,
                                             _TYPES[key][1], json.dumps(value, default=repr)))


def _section(data, name, source, text):
    if name not in data:
        raise ConfigurationError(
            "%s: missing required section %r" % (source, name))
    value = data[name]
    if not isinstance(value, dict):
        raise ConfigurationError(
            "%ssection %r must be an object, got %s"
            % (_at(source, text, name), name, type(value).__name__))
    return value


class RunConfiguration:
    """Validated bundle of everything a command needs."""

    def __init__(self, potential, profile, solver, output_dir="out"):
        self.potential = potential
        self.profile = profile
        self.solver = solver
        self.output_dir = str(output_dir)

    @classmethod
    def from_dict(cls, data, source="<config>", text=""):
        if not isinstance(data, dict):
            raise ConfigurationError(
                "%s: top level must be an object, got %s"
                % (source, type(data).__name__))
        _check_keys("top-level", data, _TOP_KEYS, source, text)

        pot_d = _section(data, "potential", source, text)
        _check_keys("potential", pot_d, _POTENTIAL_KEYS, source, text)
        prof_d = _section(data, "profile", source, text)
        _check_keys("profile", prof_d, _PROFILE_KEYS, source, text)
        sol_d = _section(data, "solver", source, text)
        _check_keys("solver", sol_d, _SOLVER_KEYS, source, text)

        def build(section, ctor, d):
            try:
                return ctor(d)
            except (ConfigurationError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    "%sin the %s section: %s"
                    % (_at(source, text, section), section, exc)) from exc

        potential = build("potential", PeriodicPotential.from_dict, pot_d)
        profile = build("profile", PerturbationProfile.from_dict, prof_d)

        for key in _SOLVER_KEYS:
            if key not in sol_d:
                raise ConfigurationError(
                    "%smissing required solver key %r"
                    % (_at(source, text, "solver"), key))
        solver = build("solver", lambda d: SolverConfig(**d), dict(sol_d))
        return cls(potential, profile, solver, data.get("output_dir", "out"))

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError("cannot read %s: %s" % (path, exc)) from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                "%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg)) from exc
        return cls.from_dict(data, source=str(path), text=text)

    def to_dict(self):
        solver = self.solver.to_dict()
        return {"potential": self.potential.to_dict(),
                "profile": self.profile.to_dict(),
                "solver": {key: solver[key] for key in _SOLVER_KEYS},
                "output_dir": self.output_dir}

    def replace_solver(self, **overrides):
        """New configuration with some solver fields swapped out."""
        d = self.solver.to_dict()
        d.update(overrides)
        return RunConfiguration(self.potential, self.profile,
                                SolverConfig(**d), self.output_dir)

    def __eq__(self, other):
        return (isinstance(other, RunConfiguration)
                and self.to_dict() == other.to_dict()
                and self.solver.to_dict() == other.solver.to_dict())

    def __repr__(self):
        return ("RunConfiguration(potential=%r, profile=%r, epsilon=%g, "
                "zeta=%g)" % (self.potential, self.profile,
                              self.solver.epsilon, self.solver.zeta))


def load_configuration(path):
    """Read and validate a JSON run file; raises ConfigurationError with a
    line-numbered diagnostic on any problem."""
    return RunConfiguration.load(path)
