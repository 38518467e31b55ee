"""Valued signals: persistence, nowval/preval, combine functions,
multiple-emission errors, and same-instant write-before-read ordering."""

import pytest

from repro import MultipleEmitError
from tests.helpers import machine_for, run_trace


class TestValues:
    def test_emitted_value_visible_same_instant(self):
        src = """
        module M(in I, out O) {
          signal S = 0;
          fork {
            loop { if (I.now) { emit S(41 + 1) } yield }
          } par {
            loop { if (S.now) { emit O(S.nowval) } yield }
          }
        }
        """
        m = machine_for(src)
        trace = run_trace(m, [{"I": True}])
        assert trace[0]["O"] == 42

    def test_value_persists_across_instants(self):
        src = """
        module M(in I, in probe, out O) {
          signal S = 0;
          fork {
            loop { if (I.now) { emit S(I.nowval) } yield }
          } par {
            loop { if (probe.now) { emit O(S.nowval) } yield }
          }
        }
        """
        m = machine_for(src)
        m.react({"I": 7})
        assert m.react({"probe": True})["O"] == 7
        assert m.react({"probe": True})["O"] == 7

    def test_initial_value(self):
        src = """
        module M(out O) {
          signal S = 10;
          emit O(S.nowval)
        }
        """
        m = machine_for(src)
        assert m.react({})["O"] == 10

    def test_interface_initial_value(self):
        m = machine_for('module M(in name = "boot", out O) { emit O(name.nowval) }')
        assert m.react({})["O"] == "boot"

    def test_input_value_overrides_initial(self):
        m = machine_for('module M(in name = "boot", out O) { emit O(name.nowval) }')
        assert m.react({"name": "alice"})["O"] == "alice"

    def test_preval(self):
        src = """
        module M(in I, out O) {
          loop { if (I.now) { emit O(I.preval) } yield }
        }
        """
        m = machine_for(src)
        m.react({"I": 1})
        assert m.react({"I": 2})["O"] == 1
        assert m.react({"I": 3})["O"] == 2

    def test_signame_reflects_interface_name(self):
        m = machine_for("module M(inout time = 0, out O) { emit O(time.signame) }")
        assert m.react({})["O"] == "time"

    def test_machine_signal_views(self):
        m = machine_for('module M(in I = 0, out O = "") { emit O("hi") }')
        m.react({"I": 5})
        assert m.O.nowval == "hi" and m.O.now
        assert m.I.nowval == 5
        assert m.signal("O").signame == "O"


class TestCombine:
    def test_multiple_emit_without_combine_raises(self):
        src = """
        module M(out O) {
          fork { emit O(1) } par { emit O(2) }
        }
        """
        with pytest.raises(MultipleEmitError):
            machine_for(src).react({})

    def test_multiple_pure_emit_is_fine(self):
        src = """
        module M(out O) {
          fork { emit O } par { emit O }
        }
        """
        assert machine_for(src).react({}).present("O")

    def test_combine_function_applied(self):
        src = """
        module M(out O = 0 combine plus) {
          fork { emit O(1) } par { emit O(2) } par { emit O(4) }
        }
        """
        m = machine_for(src, host_globals={"plus": lambda a, b: a + b})
        assert m.react({})["O"] == 7

    def test_combine_reader_sees_final_value(self):
        src = """
        module M(out O, out R = 0 combine plus) {
          fork { emit R(1) } par { emit R(2) } par {
            if (R.now) { emit O(R.nowval) }
          }
        }
        """
        m = machine_for(src, host_globals={"plus": lambda a, b: a + b})
        assert m.react({})["O"] == 3

    def test_missing_combine_function_errors(self):
        from repro.errors import MachineError

        src = "module M(out O = 0 combine nosuch) { emit O(1) }"
        with pytest.raises(MachineError):
            machine_for(src)


class TestScheduling:
    def test_writer_ordered_before_reader_across_branch_order(self):
        # reader branch written first in the source: the microscheduler
        # must still run the emit first
        src = """
        module M(out O) {
          signal S = 0;
          fork { emit O(S.nowval) } par { emit S(5) }
        }
        """
        # reader reads S.nowval without testing S.now: still sees 5
        m = machine_for(src)
        assert m.react({})["O"] == 5

    def test_local_init_ordered_before_emit(self):
        src = """
        module M(in I, out O) {
          loop {
            signal S = 0;
            fork { emit S(9) } par { emit O(S.nowval) }
            yield
          }
        }
        """
        m = machine_for(src)
        assert m.react({})["O"] == 9

    @pytest.mark.parametrize("backend", ["worklist", "levelized", "sparse"])
    def test_local_init_reading_a_signal_evaluates_in_scope(self, backend):
        src = """
        module M(in I = 1, out Y = 0) {
          fork { signal L = I.nowval + 10; emit Y(L.nowval) }
        }
        """
        m = machine_for(src, backend=backend)
        assert m.react({"I": 5})["Y"] == 15

    def test_chain_of_value_dependencies(self):
        src = """
        module M(out O) {
          signal A = 0, B = 0;
          fork { emit O(B.nowval) } par { emit B(A.nowval + 1) } par { emit A(1) }
        }
        """
        m = machine_for(src)
        assert m.react({})["O"] == 2

    def test_host_expression_in_emit(self):
        src = "module M(in I = 0, out O) { emit O(double(I.nowval)) }"
        m = machine_for(src, host_globals={"double": lambda x: 2 * x})
        assert m.react({"I": 21})["O"] == 42


class TestHostFrame:
    def test_let_binding(self):
        src = """
        module M(out O) {
          let x = 10;
          emit O(x + 1)
        }
        """
        assert machine_for(src).react({})["O"] == 11

    def test_atom_mutates_frame(self):
        src = """
        module M(out O) {
          let x = 0;
          hop { x = x + 5 };
          yield;
          hop { x = x + 5 };
          emit O(x)
        }
        """
        m = machine_for(src)
        m.react({})
        assert m.react({})["O"] == 10

    def test_module_var_parameter(self):
        src = """
        module Inner(var n, out O) { emit O(n * 2) }
        module M(out O) { run Inner(n=21, ...) }
        """
        assert machine_for(src, entry="M").react({})["O"] == 42

    def test_var_instances_are_independent(self):
        src = """
        module Inner(var n, out O) { emit O(n) }
        module M(out O = 0 combine plus) {
          fork { run Inner(n=1, ...) } par { run Inner(n=2, ...) }
        }
        """
        m = machine_for(src, entry="M", host_globals={"plus": lambda a, b: a + b})
        assert m.react({})["O"] == 3
