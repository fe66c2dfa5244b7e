"""Rules the source tree keeps, checked on its syntax trees."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions():
    """(module, name) of each public top-level function or class of the
    package, outside its __init__, and (module, class.method) of each public
    method of such a class."""
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                    yield path.stem, node.name
                    for member in node.body if isinstance(node, ast.ClassDef) else []:
                        if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                            yield path.stem, f"{node.name}.{member.name}"


def _references(path, strings: bool) -> set:
    """Names a file loads or reads as attributes, and with strings its
    string constants: the benchmark's tracer wraps functions it names by
    (module, name) strings."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_has_a_reference_outside_the_tests():
    used = set().union(*(_references(p, strings=False)
                         for p in (ROOT / "src" / "rigpose").glob("*.py")),
                       *(_references(p, strings=True) for p in (ROOT / "perfbench").glob("*.py")))
    public = list(_public_definitions())
    assert len(public) > 50
    assert sum("." in name for _, name in public) > 10
    unused = [f"{module}.{name}" for module, name in public
              if name.rpartition(".")[2] not in used]
    assert not unused, f"public names only the tests use: {unused}"


def test_json_input_is_read_only_in_errors():
    # errors.read_json and errors.build_block hold the one rule for JSON
    # input; a module that parsed JSON itself would bring rules of its own.
    readers = {"load", "loads", "JSONDecodeError"}
    where = {}
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                used = {node.id} if isinstance(node, ast.Name) else set()
            for name in used & readers:
                where.setdefault(name, set()).add(path.name)
    assert where == {name: {"errors.py"} for name in ("load", "JSONDecodeError")}, where


def _bound(node) -> set:
    """Names a statement binds in the scope it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.asname or alias.name for alias in node.names}
    return set()


def _definitions():
    """What src/rigpose defines: per module (the package as `rigpose`) its
    top-level names, per class its members (dataclass fields among them),
    and every such name, function parameter and string constant."""
    modules, members, defined = {}, {}, set()
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules["rigpose" if path.stem == "__init__" else path.stem] = set().union(
            *map(_bound, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members[node.name] = set().union(*map(_bound, node.body))
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                defined.add(node.value)
    modules["rigpose"] |= set(modules)
    defined = defined.union(*modules.values(), *members.values())
    return modules, members, defined


def test_readme_names_only_what_the_package_defines():
    # A backticked snake_case or dotted name in README must still exist:
    # each part of a dotted name is defined in the module or class before it.
    modules, members, defined = _definitions()
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = {span for span in re.findall(r"`([^`]+)`", text)
             if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", span) and set("._") & set(span)}
    assert len(names) > 20

    def resolves(name):
        first, *rest = name.split(".")
        scope = modules.get(first, members.get(first))
        for part in rest:
            if scope is None or part not in scope:
                return False
            scope = modules.get(part, members.get(part))
        return bool(rest) or first in defined

    unknown = sorted(n for n in names - {"D_k", "R_k", "pyproject.toml"} if not resolves(n))
    assert not unknown, f"README names what src/rigpose does not define: {unknown}"


def _per_iteration(node) -> list:
    """The parts of a loop or comprehension that run once per iteration:
    all but the iterable that a for loop or the first generator reads once."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body + node.orelse
    if isinstance(node, ast.While):
        return [node.test] + node.body + node.orelse
    first, *rest = node.generators
    return ([getattr(node, part) for part in ("elt", "key", "value") if hasattr(node, part)]
            + [first.target, *first.ifs] + rest)


def test_random_streams_are_made_outside_loops():
    # Random streams are made per run, never per frame or camera: no
    # generator is built or seed spawned inside a loop or comprehension.
    makers = {"default_rng", "Generator", "spawn"}
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = set()
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        for loop in ast.walk(ast.parse(path.read_text())):
            if isinstance(loop, loops):
                for part in _per_iteration(loop):
                    for node in ast.walk(part):
                        func = getattr(node, "func", None)
                        if getattr(func, "attr", getattr(func, "id", None)) in makers:
                            found.add(f"{path.name}:{node.lineno}")
    assert not found, f"random streams made inside a loop: {sorted(found)}"


def test_each_filter_step_is_called_from_one_function():
    # One driver seeds, predicts, measures and updates every filter stack:
    # a second caller of any of these would be a second frame loop or seed.
    # lowe_pose places its candidates through pose_measurement_rows, which
    # is not among them.
    steps = {"lowe_pose", "make_pose_filter", "pose_predict", "measure", "pose_update"}
    callers = {name: set() for name in steps}
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in steps:
                    callers[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert all(len(where) == 1 for where in callers.values()), callers


def test_only_monte_carlo_builds_the_default_rigs():
    # The study's rigs are its defaults, built in one place: the config
    # reader and run-tracks build no rig they do not use.
    rigs = {"default_overlap_rig", "default_nonoverlap_rig"}
    callers = set()
    for path in sorted((ROOT / "src" / "rigpose").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if getattr(func, "attr", getattr(func, "id", None)) in rigs:
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"harness.monte_carlo"}, callers


def test_the_pipeline_reads_its_cameras_from_the_stack():
    # Every kernel, replenish and seed of the estimators reads its cameras
    # from a CameraStack: no code of the pipeline looks up a camera's
    # intrinsics beside it.
    tree = ast.parse((ROOT / "src" / "rigpose" / "pipeline.py").read_text())
    names = {getattr(node, field) for node in ast.walk(tree)
             for field in ("id", "attr", "name", "arg")
             if isinstance(getattr(node, field, None), str)}
    assert not names & {"Intrinsics", "intrinsics"}


def test_the_rigidity_fusion_policy_lives_in_fusion():
    # fusion.fuse_series builds the RC series: the medians, the scale
    # systems, their solves and the scales a degenerate frame keeps. The
    # pipeline hands it the chains' poses and names none of its pieces.
    tree = ast.parse((ROOT / "src" / "rigpose" / "pipeline.py").read_text())
    names = {getattr(node, field) for node in ast.walk(tree)
             for field in ("id", "attr", "name")
             if isinstance(getattr(node, field, None), str)}
    pieces = {"fuse_pose", "solve_scales", "build_scale_system", "fuse_rotation_median",
              "FusionResult"}
    assert not names & pieces, sorted(names & pieces)


def test_every_frame_of_the_driver_reads_one_row_rule():
    # _run_filters reads the track table's live rows in one place,
    # measurable (live structure through the gate), and selects no camera
    # by its index: a frame-specific row rule, such as a seed from one
    # camera's ungated rows, cannot come back. The chains' structure pass
    # takes the driver's measurable rows and reads no live rows of its own.
    tree = ast.parse((ROOT / "src" / "rigpose" / "pipeline.py").read_text())
    top = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    driver = top["_run_filters"]
    measurable = next(node for node in ast.walk(driver)
                      if isinstance(node, ast.FunctionDef) and node.name == "measurable")

    def live_reads(scope):
        return [ast.unparse(node) for node in ast.walk(scope)
                if isinstance(node, ast.Attribute) and node.attr == "live"]

    assert live_reads(driver) == live_reads(measurable) == ["store.live"], live_reads(driver)
    assert not live_reads(top["_structure_pass"]), live_reads(top["_structure_pass"])
    by_index = [ast.unparse(node) for node in ast.walk(driver) if isinstance(node, ast.Compare)
                and any(getattr(side, "id", getattr(side, "attr", None)) == "seg"
                        for side in [node.left, *node.comparators])]
    assert not by_index, by_index


def test_the_kernel_oracles_call_no_kernel_they_mirror():
    # tests/reference.py writes out what the kernels compute; an oracle that
    # called a kernel, or anything of ekf, would check the kernel against
    # itself.
    ekf = {name for node in ast.parse((ROOT / "src" / "rigpose" / "ekf.py").read_text()).body
           if not isinstance(node, (ast.Import, ast.ImportFrom)) for name in _bound(node)}
    kernels = {"view_points", "back_project", "axis_sum", "pinhole_derivatives",
               "rot_with_derivatives", "ekf"} | ekf
    path = ROOT / "tests" / "reference.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            for alias in node.names:
                imported.update(f"{module or ''}.{alias.name}".split("."))
    assert len(ekf) > 8
    found = (imported | _references(path, strings=False)) & kernels
    assert not found, sorted(found)
