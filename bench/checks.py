"""Output checks for every benchmark reply.

Expected outcomes come from the corpus, where they were computed apart
from the deciders (oracle scans, the isolation gcd law, an own count of
admissible (3,2) tuples) or follow from the method: conjugate pairs share
every verdict, `equivalent` is symmetric, the same request gives the same
bytes.  Only verdict-level fields are read, never certificate internals.
"""

from __future__ import annotations

import json


class Checker:
    def __init__(self):
        self.errors: list[str] = []
        self._first: dict = {}       # invariant fields per group and command
        self._stdout: dict = {}      # stdout per distinct request

    @property
    def ok(self) -> bool:
        return not self.errors

    def _fail(self, group: dict, req: dict, msg: str) -> bool:
        self.errors.append(f"{group['id']} {req['command']} "
                           f"variant {req['variant']}: {msg}")
        return False

    def _same(self, group, req, key, value) -> bool:
        """Conjugates of one base pair must agree on value."""
        k = (group["id"], req["command"], key)
        if k not in self._first:
            self._first[k] = value
            return True
        if self._first[k] != value:
            return self._fail(group, req, f"{key} {value!r} differs from "
                              f"{self._first[k]!r} on another conjugate")
        return True

    def check(self, group: dict, req: dict, text: str, rc, out: str,
              err: str):
        """(reply, good): reply is None when the request failed; good says
        whether every check on this reply held.

        A group's known fault (a given exit code and message, or a given
        wrong verdict) counts as a failed request without failing a check;
        any other failure fails a check."""
        fault = group.get("known_fault", {})
        if rc != 0:
            if not (rc == fault.get("exit") and fault["stderr"] in err):
                self._fail(group, req, f"exit {rc!r}: {err.strip()[-300:]}")
            return None, False
        key = (req["command"], tuple(req["flags"]), text)
        prev = self._stdout.setdefault(key, out)
        good = True
        if prev != out:
            good = self._fail(group, req, "a repeated request printed "
                              "different bytes")
        try:
            reply = json.loads(out)
        except json.JSONDecodeError as exc:
            self._fail(group, req, f"stdout is not JSON: {exc}")
            return {}, False
        wrong = fault.get("reply")
        if wrong and all(reply.get(k) == v for k, v in wrong.items()):
            # the known wrong verdict; the other fields must still hold
            self._expect(group, req, reply, ["ranks", "params", "subset"])
            return None, False
        checker = getattr(self, "_" + req["command"].replace("-", "_"))
        good = checker(group, req, reply) and good
        return reply, good

    # one method per command

    def _expect(self, group, req, reply, fields) -> bool:
        want = group["expect"]
        good = True
        for f in fields:
            if reply.get(f) != want[f]:
                good = self._fail(group, req, f"{f} {reply.get(f)!r}, "
                                  f"expected {want[f]!r}")
        return good

    def _ranks(self, group, req, reply) -> bool:
        r1, r2 = group["expect"]["ranks"]
        want = {"rk1": r1, "rk2": r2, "rk3": 1, "hirsch_length": r1 + r2 + 1}
        if reply != want:
            return self._fail(group, req, f"{reply!r}, expected {want!r}")
        return True

    def _classify(self, group, req, reply) -> bool:
        fields = ["ranks", "params", "subset"]
        if "values" in req["payload"]:
            fields.append("irreducible")
        return self._expect(group, req, reply, fields)

    def _irreducible(self, group, req, reply) -> bool:
        return self._expect(group, req, reply,
                            ["ranks", "params", "subset", "irreducible"])

    def _stratum(self, group, req, reply) -> bool:
        good = self._expect(group, req, reply, ["ranks", "params", "subset"])
        row, size = reply.get("row"), reply.get("table_size")
        if not (isinstance(row, int) and isinstance(size, int)
                and 1 <= row <= size):
            good = self._fail(group, req, f"row {row!r} of {size!r}")
        return self._same(group, req, "row", row) and good

    def _f_equivalents(self, group, req, reply) -> bool:
        return self._same(group, req, "companions", reply.get("companions"))

    def _isolator(self, group, req, reply) -> bool:
        iso = reply.get("is_isolated")
        want = group["expect"].get("is_isolated")
        if want is not None and iso != want:
            return self._fail(group, req, f"is_isolated {iso!r}, the gcd law "
                              f"says {want!r}")
        return self._same(group, req, "is_isolated", iso)

    def _equivalent(self, group, req, reply) -> bool:
        want = req["expect"]["status"]
        if reply.get("status") != want:
            return self._fail(group, req, f"status {reply.get('status')!r}, "
                              f"expected {want!r}")
        return True

    def _verify(self, group, req, reply) -> bool:
        want = group["expect"]
        good = True
        if reply.get("discrepancies") != []:
            good = self._fail(group, req, "discrepancies "
                              f"{reply.get('discrepancies')!r}")
        if reply.get("params_checked") != want["checked"]:
            good = self._fail(group, req, f"checked {reply.get('params_checked')}"
                              f" tuples, asked for {want['checked']}")
        if "alternate_note" in want:
            notes = [a.get("note", "") for a in reply.get("alternate_readings",
                                                          [])]
            if not any(want["alternate_note"] in n for n in notes):
                good = self._fail(group, req, "no alternate reading noting "
                                  f"{want['alternate_note']!r}")
        if "box_count" in want:
            of = [n.get("of") for n in reply.get("notes", [])
                  if n.get("note") == "strided sweep"]
            if of != [want["box_count"]]:
                good = self._fail(group, req, f"box holds {of!r} admissible "
                                  f"tuples, counted {want['box_count']}")
        return good
