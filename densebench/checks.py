"""Independent checks of every answer, run outside the timed operation.

* A SAT witness or an INVALID countermodel read back from `--model` must
  satisfy (or falsify) the formula at its root under `oracle.model_check`,
  on a dense (kde) or weakly dense (kdeab) frame.
* An UNSAT or VALID answer must survive `oracle.bounded_search` over the
  same frame class with a small world count.
* A translate-slice answer must agree with the plain-K tableau
  `oracle.k_valid` on the untranslated formula.
* A cross-validation op must not have the oracle find a model for a
  formula the solver called UNSAT, and the oracle's model must check out.
"""

from __future__ import annotations

import json
from typing import Optional

from .ops import Op, Outcome

# World count for refuting UNSAT/VALID answers: cheap, and still finds
# every countermodel that needs at most two worlds.
REFUTE_WORLDS = 2

_SAT_VERDICTS = {"sat": ("SAT", "UNSAT"), "valid": ("INVALID", "VALID")}


class CheckFailed(Exception):
    pass


class Checker:
    """Checks outcomes with the program's oracle module.

    The oracle entry points are held as attributes of this object, so the
    traced run can wrap them where the checks look them up.
    """

    def __init__(self, prog) -> None:
        self.formula = prog.formula
        oracle = prog.oracle
        self.model_from_json = oracle.model_from_json
        self.model_check = oracle.model_check
        self.is_dense = oracle.is_dense
        self.is_weakly_dense = oracle.is_weakly_dense
        self.bounded_search = oracle.bounded_search
        self.k_valid = oracle.k_valid

    def check(self, op: Op, outcome: Outcome) -> Optional[str]:
        """Return None when every answer checks out, else the failed check."""
        try:
            if outcome.status != "ok":
                return f"{outcome.status}: {outcome.detail}"
            for call in outcome.calls:
                if call.code != 0:
                    raise CheckFailed(f"exit code {call.code} from {call.argv[0]}: {call.err.strip()}")
            if op.kind == "solve":
                self._solve(op.logic, op.mode, op.text, outcome.calls[0], stats=True)
            elif op.kind == "translate":
                self._translate(op, outcome)
            else:
                self._xval(op, outcome)
        except CheckFailed as exc:
            return f"check failed: {exc}"
        return None

    # -- pieces ------------------------------------------------------------

    def _parse(self, logic: str, text: str):
        mode = self.formula.UNIMODAL if logic == "kde" else self.formula.BIMODAL
        return self.formula.parse(text, mode)

    def _frame_ok(self, logic: str, model) -> bool:
        return self.is_dense(model) if logic == "kde" else self.is_weakly_dense(model)

    def _solve(self, logic: str, mode: str, text: str, call, stats: bool) -> str:
        lines = call.out.splitlines()
        verdict = lines[0] if lines else ""
        positive, negative = _SAT_VERDICTS[mode]
        if verdict not in (positive, negative):
            raise CheckFailed(f"unexpected verdict line {verdict!r}")
        if stats:
            try:
                parsed = json.loads(lines[1]) if len(lines) > 1 else None
            except json.JSONDecodeError:
                parsed = None
            if not isinstance(parsed, dict):
                raise CheckFailed("missing --stats JSON line")
        phi = self._parse(logic, text)
        if verdict == positive:
            if call.model is None:
                raise CheckFailed(f"{verdict} without a --model file")
            try:
                model = self.model_from_json(json.loads(call.model))
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckFailed(f"unreadable model file: {exc}") from None
            want = mode == "sat"
            if self.model_check(model, model.root, phi) != want:
                raise CheckFailed(f"the {verdict} model {'fails' if want else 'satisfies'} the formula at its root")
            if not self._frame_ok(logic, model):
                raise CheckFailed(f"the {verdict} model's frame is not {'dense' if logic == 'kde' else 'weakly dense'}")
        else:
            if call.model is not None:
                raise CheckFailed(f"a model file was written for {verdict}")
            target = phi if mode == "sat" else self.formula.Not(phi)
            if self._refute(logic, target) is not None:
                raise CheckFailed(f"{verdict}, but the oracle found a model within {REFUTE_WORLDS} worlds")
        return verdict

    def _refute(self, logic: str, target):
        frame_class = "dense" if logic == "kde" else "weakly_dense"
        atoms = max(1, len(self.formula.atom_names(target)))
        return self.bounded_search({target}, frame_class, max_worlds=REFUTE_WORLDS, max_atoms=atoms)

    def _translate(self, op: Op, outcome: Outcome) -> None:
        if len(outcome.calls) != 2:
            raise CheckFailed("translate produced no solve call")
        translated = outcome.calls[0].out.strip()
        verdict = self._solve("kde", "valid", translated, outcome.calls[1], stats=True)
        k_valid = self.k_valid(self._parse("kde", op.text))
        if (verdict == "VALID") != k_valid:
            raise CheckFailed(f"{verdict} after translation, but k_valid says {'valid' if k_valid else 'invalid'}")

    def _xval(self, op: Op, outcome: Outcome) -> None:
        solve, oracle = outcome.calls
        verdict = self._solve(op.logic, "sat", op.text, solve, stats=False)
        lines = oracle.out.splitlines()
        answer = lines[0] if lines else ""
        if answer == "FOUND":
            try:
                model = self.model_from_json(json.loads(lines[1]))
            except (IndexError, ValueError, KeyError, TypeError) as exc:
                raise CheckFailed(f"unreadable oracle model: {exc}") from None
            phi = self._parse(op.logic, op.text)
            if len(model.worlds) > op.worlds or not self.model_check(model, model.root, phi):
                raise CheckFailed("the oracle's model does not satisfy the formula within the bound")
            if not self._frame_ok(op.logic, model):
                raise CheckFailed("the oracle's model is outside the frame class")
            if verdict != "SAT":
                raise CheckFailed(f"the oracle found a model but the solver said {verdict}")
        elif answer != "NONE-WITHIN-BOUND":
            raise CheckFailed(f"unexpected oracle line {answer!r}")
