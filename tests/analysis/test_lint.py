"""Repo-specific lint: every rule fires, every suppression suppresses."""

import ast
import os
import textwrap

import repro
from repro.analysis.lint import Finding, lint_file, lint_paths, main


def check(tmp_path, source, relative="module.py"):
    path = tmp_path / os.path.basename(relative)
    path.write_text(textwrap.dedent(source))
    return lint_file(str(path), relative)


def rules(findings):
    return [finding.rule for finding in findings]


class TestRepoIsClean:
    def test_whole_package_lints_clean(self):
        package_root = os.path.dirname(repro.__file__)
        findings = lint_paths([package_root])
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_main_exit_codes(self, tmp_path, capsys):
        package_root = os.path.dirname(repro.__file__)
        assert main([package_root]) == 0
        assert "clean" in capsys.readouterr().out
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[R003]" in out and "1 finding(s)" in out


class TestR001DeviceInternals:
    def test_locate_outside_hw_flags(self, tmp_path):
        findings = check(tmp_path, "block = gpu.memory._locate(address)\n")
        assert rules(findings) == ["R001"]
        assert "_locate" in findings[0].message

    def test_on_observe_assignment_outside_hw_flags(self, tmp_path):
        findings = check(tmp_path, "memory.on_observe = callback\n")
        assert rules(findings) == ["R001"]

    def test_inside_hw_is_the_implementation(self, tmp_path):
        findings = check(
            tmp_path,
            "block = self._locate(address)\nself.on_observe = hook\n",
            relative="hw/memory.py",
        )
        assert findings == []


class TestR002BytesCopies:
    def test_bytes_of_subscript_flags(self, tmp_path):
        findings = check(tmp_path, "chunk = bytes(view[lo:hi])\n")
        assert rules(findings) == ["R002"]

    def test_plain_bytes_constructor_is_fine(self, tmp_path):
        assert check(tmp_path, "zeros = bytes(64)\n") == []

    def test_bytes_of_whole_view_is_fine(self, tmp_path):
        # Only the subscript form reintroduces the partial copy.
        assert check(tmp_path, "frozen = bytes(view)\n") == []


class TestR003Nondeterminism:
    def test_unseeded_default_rng_flags(self, tmp_path):
        findings = check(tmp_path, "rng = np.random.default_rng()\n")
        assert rules(findings) == ["R003"]

    def test_seeded_default_rng_is_fine(self, tmp_path):
        assert check(tmp_path, "rng = np.random.default_rng(seed)\n") == []

    def test_wall_clock_reads_flag(self, tmp_path):
        source = """\
        start = time.perf_counter()
        stamp = datetime.now()
        """
        assert rules(check(tmp_path, source)) == ["R003", "R003"]

    def test_global_random_state_flags(self, tmp_path):
        findings = check(tmp_path, "jitter = random.uniform(0.0, 1.0)\n")
        assert rules(findings) == ["R003"]

    def test_seeded_random_instance_is_fine(self, tmp_path):
        assert check(tmp_path, "rng = random.Random(17)\n") == []


class TestR004StateBypass:
    def test_state_assignment_outside_core_flags(self, tmp_path):
        findings = check(tmp_path, "block.state = BlockState.DIRTY\n")
        assert rules(findings) == ["R004"]

    def test_states_subscript_write_flags(self, tmp_path):
        findings = check(tmp_path, "table.states[lo:hi] = DIRTY_CODE\n")
        assert rules(findings) == ["R004"]

    def test_table_fill_flags(self, tmp_path):
        findings = check(tmp_path, "region.table.fill(READ_ONLY_CODE)\n")
        assert rules(findings) == ["R004"]

    def test_coherence_core_owns_state(self, tmp_path):
        source = """\
        block.state = BlockState.DIRTY
        self.table.states[lo:hi] = DIRTY_CODE
        table.fill(READ_ONLY_CODE)
        """
        assert check(tmp_path, source,
                     relative="core/protocols/rolling.py") == []

    def test_reading_states_is_not_a_mutation(self, tmp_path):
        assert check(tmp_path, "dirty = table.states[index] == 1\n") == []


class TestR005AdHocPools:
    def test_multiprocessing_pool_flags(self, tmp_path):
        findings = check(tmp_path, "pool = multiprocessing.Pool(4)\n")
        assert rules(findings) == ["R005"]
        assert "ExperimentExecutor" in findings[0].message

    def test_context_pool_flags(self, tmp_path):
        source = 'pool = multiprocessing.get_context("fork").Pool(2)\n'
        assert rules(check(tmp_path, source)) == ["R005"]

    def test_bare_pool_call_flags(self, tmp_path):
        assert rules(check(tmp_path, "with Pool(2) as p:\n    pass\n")) == [
            "R005"
        ]

    def test_executor_engine_owns_pools(self, tmp_path):
        source = "pool = context.Pool(processes=2)\n"
        assert check(tmp_path, source, relative="experiments/pool.py") == []
        # The executor delegates to the pool engine; it builds none itself.
        assert rules(check(
            tmp_path, source, relative="experiments/executor.py"
        )) == ["R005"]

    def test_reading_a_pool_attribute_is_fine(self, tmp_path):
        assert check(tmp_path, "size = engine.Pool\n") == []


class TestR006DirectCopies:
    def test_view_pair_copy_flags(self, tmp_path):
        # The pre-ledger salvage idiom: device view into host view.
        source = (
            'space.view(host, "u1", n)[:] = '
            'gpu.memory.view(dev, "u1", n)\n'
        )
        findings = check(tmp_path, source)
        assert rules(findings) == ["R006"]
        assert "copy_h2d/copy_d2h" in findings[0].message

    def test_poke_of_device_read_flags(self, tmp_path):
        source = "space.poke(host, ctx.gpu.memory.read(dev, n))\n"
        assert rules(check(tmp_path, source)) == ["R006"]

    def test_device_write_from_backing_flags(self, tmp_path):
        source = "gpu.memory.write(dev, mapping.backing[lo:hi])\n"
        assert rules(check(tmp_path, source)) == ["R006"]

    def test_peek_view_into_device_fill_flags(self, tmp_path):
        source = (
            "ctx.gpu.memory.write(dev, space.peek_view(host, n))\n"
        )
        assert rules(check(tmp_path, source)) == ["R006"]

    def test_ledger_core_owns_the_copies(self, tmp_path):
        source = "gpu.memory.write(dev, mapping.backing[lo:hi])\n"
        assert check(tmp_path, source, relative="hw/memory.py") == []

    def test_single_plane_statements_are_fine(self, tmp_path):
        assert check(tmp_path, "data = gpu.memory.read(dev, n)\n") == []
        assert check(tmp_path, "space.poke(host, data)\n") == []
        assert check(
            tmp_path, "chunk = mapping.backing[lo:hi].copy()\n"
        ) == []

    def test_numpy_view_casts_are_fine(self, tmp_path):
        # ``array.view("u1")`` on the device side alone is not a copy.
        assert check(
            tmp_path, 'words = gpu.memory.view(dev, "i4", n)\n'
        ) == []


class TestSuppression:
    def test_allow_comment_suppresses_exactly_that_rule(self, tmp_path):
        findings = check(
            tmp_path,
            "chunk = bytes(view[lo:hi])  # sanitizer: allow[R002]\n",
        )
        assert findings == []

    def test_allow_comment_for_another_rule_does_not(self, tmp_path):
        findings = check(
            tmp_path,
            "chunk = bytes(view[lo:hi])  # sanitizer: allow[R003]\n",
        )
        assert rules(findings) == ["R002"]

    def test_syntax_errors_are_reported_not_swallowed(self, tmp_path):
        findings = check(tmp_path, "def broken(:\n")
        assert rules(findings) == ["R000"]

    def test_finding_renders_with_location(self):
        finding = Finding("core/api.py", 12, "R004", "bypass")
        assert str(finding) == "core/api.py:12: [R004] bypass"


#: The only ``REPRO_*`` variables the program may read: workload scale,
#: the result cache and the sanitizer.  No engine path has a switch.
ALLOWED_ENVIRONMENT = {
    "REPRO_SCALE", "REPRO_CACHE_DIR", "REPRO_RESULT_CACHE",
    "REPRO_SANITIZE", "REPRO_SANITIZE_REPORT", "REPRO_SANITIZE_TOKEN",
}


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _environment_keys(tree):
    """Key expressions of every environment read in ``tree``:
    ``os.environ.get(k)``, ``os.getenv(k)``, ``os.environ[k]`` and
    ``k in os.environ``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "get"
                    and _is_environ(func.value)):
                yield node.args[0]
            elif (isinstance(func, ast.Attribute) and func.attr == "getenv"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"):
                yield node.args[0]
        elif (isinstance(node, ast.Subscript) and _is_environ(node.value)
                and isinstance(node.ctx, ast.Load)):
            yield node.slice
        elif (isinstance(node, ast.Compare)
                and any(_is_environ(op) for op in node.comparators)):
            yield node.left


class TestNoEngineKnobs:
    def test_only_allowed_environment_variables_are_read(self):
        package_root = os.path.dirname(repro.__file__)
        trees = {}
        for directory, _, names in os.walk(package_root):
            for name in names:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        trees[path] = ast.parse(handle.read())
        # Module-level string constants, so ``os.environ.get(ENABLE_ENV)``
        # and ``analysis.ENABLE_ENV`` resolve to the variable they name.
        constants = {}
        for tree in trees.values():
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            constants[target.id] = node.value.value
        read = set()
        for path, tree in trees.items():
            for key in _environment_keys(tree):
                if isinstance(key, ast.Constant):
                    read.add(key.value)
                elif isinstance(key, ast.Name) and key.id in constants:
                    read.add(constants[key.id])
                elif (isinstance(key, ast.Attribute)
                        and key.attr in constants):
                    read.add(constants[key.attr])
                else:
                    raise AssertionError(
                        f"{path}:{key.lineno}: unresolvable environment key"
                    )
        assert ALLOWED_ENVIRONMENT & read
        assert sorted(read - ALLOWED_ENVIRONMENT) == []
