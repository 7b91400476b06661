"""Formula/term core: node hashing, free variables, substitution, closure."""

import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofbench import syntax
from proofbench.parser import MAX_NESTING
from proofbench.syntax import (
    And,
    App,
    Atom,
    CaptureError,
    Const,
    Exists,
    Forall,
    Iff,
    Implies,
    NestingError,
    Not,
    Or,
    Var,
    connective_depth,
    free_for,
    free_vars,
    is_sentence,
    substitute,
    substitute_term,
    universal_closure,
)

from strategies import formulas, terms

X1, X2, X3 = Var(1), Var(2), Var(3)
LT12 = Atom("<", (X1, X2))
EQ11 = Atom("=", (X1, X1))


def test_free_vars_ascending_and_deduplicated():
    f = Implies(Atom("<", (X2, X1)), Atom("=", (X2, X3)))
    assert free_vars(f) == (1, 2, 3)


def test_free_vars_respects_binders():
    assert free_vars(Forall(1, LT12)) == (2,)
    assert free_vars(Forall(2, Forall(1, LT12))) == ()
    assert free_vars(Exists(3, LT12)) == (1, 2)


def test_term_vars():
    assert free_vars(App("+", (X1, App("S", (X3,))))) == (1, 3)
    assert free_vars(Const("0")) == ()


def test_is_sentence():
    assert is_sentence(Forall(1, EQ11))
    assert not is_sentence(EQ11)
    assert is_sentence(Atom("<", (Const("0"), Const("1"))))


def test_substitute_in_atom():
    got = substitute(LT12, 1, Const("0"))
    assert got == Atom("<", (Const("0"), X2))


def test_substitute_skips_bound_occurrences():
    f = Forall(1, LT12)
    assert substitute(f, 1, Const("0")) == f
    got = substitute(f, 2, Const("1"))
    assert got == Forall(1, Atom("<", (X1, Const("1"))))


def test_substitute_term():
    t = App("+", (X1, X2))
    assert substitute_term(t, 1, App("S", (X2,))) == App("+", (App("S", (X2,)), X2))


def test_capture_is_detected():
    # substituting x2 for x1 inside (Ax2) would capture
    f = Forall(2, LT12)
    assert not free_for(1, X2, f)
    with pytest.raises(CaptureError):
        substitute(f, 1, X2)
    assert substitute(f, 1, X2, check=False) is not None


def test_free_for_positive_cases():
    f = Forall(2, LT12)
    assert free_for(1, Const("0"), f)
    assert free_for(1, X3, f)
    assert free_for(1, X1, f)


def test_universal_closure_order_and_idempotence():
    f = Atom("<", (X3, X1))
    closed = universal_closure(f)
    assert closed == Forall(1, Forall(3, f))
    assert is_sentence(closed)
    assert universal_closure(closed) == closed


# The recursive walks that the stored facts replaced, kept as references.


def _walk_term_vars(t):
    if isinstance(t, Var):
        return frozenset((t.id,))
    if isinstance(t, Const):
        return frozenset()
    out = frozenset()
    for a in t.args:
        out |= _walk_term_vars(a)
    return out


def _walk_free_vars(f, bound=frozenset()):
    if isinstance(f, Atom):
        return set().union(*(_walk_term_vars(a) - bound for a in f.args))
    if isinstance(f, Not):
        return _walk_free_vars(f.body, bound)
    if isinstance(f, (Forall, Exists)):
        return _walk_free_vars(f.body, bound | {f.var})
    return _walk_free_vars(f.left, bound) | _walk_free_vars(f.right, bound)


def _walk_connective_depth(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Not, Forall, Exists)):
        return 1 + _walk_connective_depth(f.body)
    return 1 + max(_walk_connective_depth(f.left), _walk_connective_depth(f.right))


def _walk_free_for(x, t, f):
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return _walk_free_for(x, t, f.body)
    if isinstance(f, (Forall, Exists)):
        if f.var == x:
            return True
        if f.var in _walk_term_vars(t) and x in _walk_free_vars(f.body):
            return False
        return _walk_free_for(x, t, f.body)
    return _walk_free_for(x, t, f.left) and _walk_free_for(x, t, f.right)


@settings(max_examples=300, deadline=None)
@given(formulas(max_depth=5), terms())
def test_stored_facts_agree_with_recursive_walks(f, t):
    assert free_vars(f) == tuple(sorted(_walk_free_vars(f)))
    assert is_sentence(f) == (not _walk_free_vars(f))
    assert connective_depth(f) == _walk_connective_depth(f)
    assert free_vars(t) == tuple(sorted(_walk_term_vars(t)))
    for x in (1, 2, 3, 4):
        assert free_for(x, t, f) == _walk_free_for(x, t, f)


def test_connective_depth():
    f = Implies(Not(EQ11), Forall(1, EQ11))
    assert connective_depth(EQ11) == 0
    assert connective_depth(f) == 2


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_identity_substitution_is_noop(f):
    for x in free_vars(f):
        assert substitute(f, x, Var(x)) == f


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_universal_closure_always_closes(f):
    closed = universal_closure(f)
    assert free_vars(closed) == ()
    assert is_sentence(closed)


@settings(max_examples=150, deadline=None)
@given(formulas(), terms())
def test_substitute_removes_the_variable_when_free_for(f, t):
    for x in free_vars(f):
        if free_for(x, t, f) and x not in free_vars(t):
            assert x not in free_vars(substitute(f, x, t))


def test_bad_binder_rejected():
    with pytest.raises(ValueError):
        Forall(0, EQ11)
    with pytest.raises(ValueError):
        Forall(-2, EQ11)
    with pytest.raises(ValueError):
        Forall("x", EQ11)  # a binder is a variable id, never a name


@pytest.mark.parametrize(
    "cls, fields",
    [
        (Not, (X1,)),
        (Implies, (X1, Const("0"))),  # else x1 -> (x2 -> x1) would pass as an L12 axiom
        (And, (EQ11, X1)),
        (Iff, (EQ11, "p")),
        (Forall, (1, X1)),
        (Exists, (2, App("S", (X1,)))),
    ],
)
def test_a_connective_or_quantifier_over_a_term_is_refused(cls, fields):
    with pytest.raises(TypeError):
        cls(*fields)


def _rebuild(node):
    """A copy of a term or formula built field by field, sharing no node."""
    if isinstance(node, tuple):
        return tuple(_rebuild(x) for x in node)
    if not hasattr(node, "__dataclass_fields__"):
        return node
    return type(node)(*(_rebuild(getattr(node, f.name)) for f in fields(node)))


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_rebuilt_node_is_equal_with_the_same_hash(f):
    for twin in (_rebuild(f), pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert twin is f
        assert twin == f
        assert hash(twin) == hash(f)


NODE_CASES = [
    (X1, ("id",), "Var(id=1)"),
    (Const("0"), ("name",), "Const(name='0')"),
    (App("S", (X1,)), ("func", "args"), "App(func='S', args=(Var(id=1),))"),
    (EQ11, ("pred", "args"), "Atom(pred='=', args=(Var(id=1), Var(id=1)))"),
    (Not(EQ11), ("body",), f"Not(body={EQ11!r})"),
    (Implies(EQ11, LT12), ("left", "right"), f"Implies(left={EQ11!r}, right={LT12!r})"),
    (And(EQ11, LT12), ("left", "right"), f"And(left={EQ11!r}, right={LT12!r})"),
    (Or(EQ11, LT12), ("left", "right"), f"Or(left={EQ11!r}, right={LT12!r})"),
    (Iff(EQ11, LT12), ("left", "right"), f"Iff(left={EQ11!r}, right={LT12!r})"),
    (Forall(1, EQ11), ("var", "body"), f"Forall(var=1, body={EQ11!r})"),
    (Exists(1, EQ11), ("var", "body"), f"Exists(var=1, body={EQ11!r})"),
]


def test_every_node_class_hashes_through_the_c_slot():
    # a node is its own key: a Python-level __hash__ would run on every dict
    # and set operation on formulas and slow them all down
    classes = {type(node) for node, _names, _text in NODE_CASES}
    assert classes == set(syntax._Node.__subclasses__()) and len(classes) == 11
    for node, _names, _text in NODE_CASES:
        assert type(node).__hash__ is object.__hash__
        assert hash(node) == object.__hash__(node)


@pytest.mark.parametrize(
    "node, names, text", NODE_CASES, ids=[type(c[0]).__name__ for c in NODE_CASES]
)
def test_node_fields_repr_and_frozenness(node, names, text):
    assert tuple(f.name for f in fields(node)) == names
    assert repr(node) == text
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, getattr(node, name))
    with pytest.raises(FrozenInstanceError):
        node.extra = 1


@pytest.mark.parametrize(
    "node", [c[0] for c in NODE_CASES], ids=[type(c[0]).__name__ for c in NODE_CASES]
)
def test_constructor_forms_give_the_one_node(node):
    cls, values = type(node), [getattr(node, f.name) for f in fields(node)]
    assert cls(*values) is node
    assert cls(**{f.name: v for f, v in zip(fields(node), values)}) is node
    assert cls(*values[:1], **{f.name: v for f, v in zip(fields(node)[1:], values[1:])}) is node
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)


def test_kernel_classes_compare_by_identity():
    for cls in {type(c[0]) for c in NODE_CASES}:
        assert cls.__eq__ is object.__eq__
        assert type(cls) is type


def test_validation_runs_on_a_table_hit():
    assert Var(1) is X1
    with pytest.raises(ValueError):
        Var(1.0)
    with pytest.raises(ValueError):
        Forall(1.0, EQ11)
    with pytest.raises(ValueError):
        Var(True)
    with pytest.raises(ValueError):
        Forall(True, EQ11)


def test_an_unreferenced_node_leaves_the_table():
    ref = weakref.ref(Not(Not(Atom("<", (Const("1"), App("S", (Const("0"),)))))))
    gc.collect()
    assert ref() is None


def test_threads_building_the_same_formulas_share_each_node():
    # a thread switch between a lookup and the store must not leave two nodes
    def build(first_id, out):
        for k in range(first_id, first_id + 200):
            out.append(Implies(Atom("<", (Var(k), Const("0"))), Not(Atom("=", (Var(k), Var(k))))))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for first_id in range(10_000, 12_000, 200):  # ids no other test builds
            results = [[] for _ in range(4)]
            threads = [threading.Thread(target=build, args=(first_id, r)) for r in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            for nodes in zip(*results, strict=True):
                assert all(n is nodes[0] for n in nodes)
    finally:
        sys.setswitchinterval(old)


def test_binary_connectives_hash_apart():
    assert len({hash(c(EQ11, LT12)) for c in (Implies, And, Or, Iff)}) == 4


def test_hash_of_a_deep_shared_dag():
    f = EQ11
    for _ in range(200):
        f = Implies(f, f)
    assert hash(f) == hash(Implies(f.left, f.right))


def _negations(n):
    f = Atom("=", (Var(1), Var(1)))
    for _ in range(n):
        f = Not(f)
    return f


def test_hash_of_a_deep_negation_chain():
    assert isinstance(hash(_negations(MAX_NESTING)), int)


def test_deepcopy_of_a_deep_negation_chain_is_the_node():
    f = _negations(MAX_NESTING)
    assert copy.deepcopy(f) is f
    assert copy.deepcopy([f, f]) == [f, f]


def test_dict_lookup_of_a_rebuilt_deep_negation_chain():
    table = {_negations(MAX_NESTING): "found"}
    assert table[_negations(MAX_NESTING)] == "found"


def _stacked(wrap, n, node):
    for _ in range(n):
        node = wrap(node)
    return node


def _successors(n, base=X1):
    return _stacked(lambda t: App("S", (t,)), n, base)


#: node class -> a build of one node of it over operands at the cap
_PAST_THE_CAP = {
    "not": lambda: Not(_negations(MAX_NESTING)),
    "successor": lambda: App("S", (_successors(MAX_NESTING, Const("0")),)),
    "plus": lambda: App("+", (Const("1"), _successors(MAX_NESTING))),
    "times": lambda: App("*", (_successors(MAX_NESTING), Const("1"))),
    **{
        cls.__name__.lower(): (lambda cls=cls: cls(EQ11, _negations(MAX_NESTING)))
        for cls in (Implies, And, Or, Iff)
    },
    "forall": lambda: Forall(1, _negations(MAX_NESTING)),
    "exists": lambda: Exists(2, _negations(MAX_NESTING)),
}


@pytest.mark.parametrize("node", _PAST_THE_CAP)
def test_constructors_refuse_a_node_past_the_nesting_cap(node):
    with pytest.raises(NestingError, match=r"MAX_NESTING \(400\)"):
        _PAST_THE_CAP[node]()
    # the refused node is not half built: the table holds nothing past the cap
    assert all(n._depth <= MAX_NESTING for n in list(syntax._TABLE.values()))


class _Flat:
    """Pickles as the flat node list ``entries``, as a node does."""

    def __init__(self, entries):
        self.entries = entries

    def __reduce__(self):
        return syntax._unflatten, (self.entries,)


@pytest.mark.parametrize("n", [1000, 5000])
def test_pickle_refuses_a_formula_past_the_nesting_cap(n):
    # a stream spelling Not^n builds it through the constructors, which refuse
    # it at level MAX_NESTING + 1, without recursing per level
    entries = [(Const, ("0",), ()), (Atom, ("=",), ((0, 0),))]
    entries += [(Not, (), (i,)) for i in range(1, n + 1)]
    data = pickle.dumps(_Flat(tuple(entries)))
    with pytest.raises(NestingError, match="MAX_NESTING"):
        pickle.loads(data)


def test_pickle_round_trips_a_formula_at_the_nesting_cap():
    f = _negations(MAX_NESTING)
    assert pickle.loads(pickle.dumps(f)) is f


def test_pickle_round_trips_a_formula_at_the_cap_on_both_counts():
    # Not^400 over S^400(0) = S^400(0): the pickler once recursed through the
    # connectives and then the terms, and ran out of stack
    tall = _successors(MAX_NESTING, Const("0"))
    f = _stacked(Not, MAX_NESTING, Atom("=", (tall, tall)))
    assert pickle.loads(pickle.dumps(f)) is f


def _dataclass_repr(value):
    """The repr the generated dataclass ``__repr__`` gives, recursing per level."""
    if isinstance(value, tuple):
        return repr(tuple(_Text(_dataclass_repr(v)) for v in value))
    if not isinstance(value, syntax._Node):
        return repr(value)
    shown = ", ".join(f"{f.name}={_dataclass_repr(getattr(value, f.name))}" for f in fields(value))
    return f"{type(value).__qualname__}({shown})"


class _Text(str):
    def __repr__(self):
        return self


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_repr_is_the_dataclass_repr(f):
    assert repr(f) == _dataclass_repr(f)


def test_repr_of_a_formula_at_the_cap_on_both_counts():
    # built bottom-up, so no level spends a frame
    tall = _successors(MAX_NESTING, Const("0"))
    f = _stacked(Not, MAX_NESTING, Atom("=", (tall, tall)))
    t = "App(func='S', args=(" * MAX_NESTING + "Const(name='0')" + ",))" * MAX_NESTING
    assert repr(tall) == t
    atom = f"Atom(pred='=', args=({t}, {t}))"
    assert repr(f) == "Not(body=" * MAX_NESTING + atom + ")" * MAX_NESTING


def test_substitute_term_refuses_a_term_past_the_nesting_cap():
    # the result would pass the cap: the constructor of its top node refuses it
    with pytest.raises(NestingError, match="MAX_NESTING"):
        substitute_term(_successors(MAX_NESTING), 1, App("S", (Const("0"),)))
    f = Atom("=", (X1, _successors(MAX_NESTING - 10)))
    with pytest.raises(NestingError, match="MAX_NESTING"):
        substitute(f, 1, _successors(11, Const("0")))


def test_walkers_take_a_formula_at_the_nesting_cap():
    zero = Const("0")
    tall = _successors(MAX_NESTING)
    f = _stacked(Not, MAX_NESTING, Atom("=", (tall, zero)))
    assert connective_depth(f) == MAX_NESTING
    assert free_for(1, X2, f)
    grounded = substitute_term(tall, 1, zero)
    assert grounded is _successors(MAX_NESTING, zero)
    assert substitute(f, 1, zero) is _stacked(Not, MAX_NESTING, Atom("=", (grounded, zero)))


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_find_returns_the_live_node(f):
    assert syntax.find(type(f), *(getattr(f, name) for name in type(f).__slots__)) is f


def test_find_builds_nothing_on_a_miss():
    body = Atom("<", (Var(20_001), Var(20_002)))  # ids no other test builds
    gc.disable()
    try:
        size = len(syntax._TABLE)
        assert syntax.find(Not, body) is None
        assert syntax.find(Implies, body, body) is None
        assert len(syntax._TABLE) == size
    finally:
        gc.enable()


def test_find_misses_a_node_once_it_is_collected():
    body = Atom("<", (Var(20_003), Const("0")))
    neg = Not(body)
    assert syntax.find(Not, body) is neg
    del neg
    gc.collect()
    assert syntax.find(Not, body) is None


@pytest.mark.parametrize(
    "cls, fields",
    [
        (Var, (0,)),
        (Var, (True,)),
        (Var, (1.0,)),
        (Const, ("2",)),
        (Forall, (True, EQ11)),
        (App, ("S", ())),
        (App, ("+", [X1, X2])),
        (Not, ()),
        (Not, (EQ11, EQ11)),
    ],
)
def test_find_gives_none_for_fields_no_node_holds(cls, fields):
    alive = (Var(1), Forall(1, EQ11))  # nodes whose keys equal some of these
    assert syntax.find(cls, *fields) is None
    assert syntax.find(Forall, 1, EQ11) is alive[1]


# The generic constructor that the per-class ones replaced, kept as the
# reference: it validates, then probes and stores through the one table.


def _ref_check_var(id):
    if not (type(id) is int and id >= 1):
        raise ValueError(id)


def _ref_check_symbol(table):
    def check(symbol, args):
        arity = table.get(symbol)
        if arity is None or len(args) != arity:
            raise ValueError(symbol)
        if not all(isinstance(a, syntax.Term) for a in args):
            raise TypeError(args)

    return check


def _ref_check_formulas(*operands):
    if not all(isinstance(g, syntax.Formula) for g in operands):
        raise TypeError(operands)


def _ref_check_binder(var, body):
    _ref_check_var(var)
    _ref_check_formulas(body)


def _ref_check_const(name):
    if name not in syntax.CONSTANTS:
        raise ValueError(name)


def _ref_merge(operands):
    free, depth = (), 0
    for g in operands:
        gfree = g._free
        if gfree and gfree != free:
            free = tuple(sorted({*free, *gfree})) if free else gfree
        if g._depth >= depth:
            depth = g._depth + 1
    return free, depth


_REF_CHECKS = {
    Var: _ref_check_var,
    Const: _ref_check_const,
    App: _ref_check_symbol(syntax.FUNCTIONS),
    Atom: _ref_check_symbol(syntax.PREDICATES),
    Not: _ref_check_formulas,
    Implies: _ref_check_formulas,
    And: _ref_check_formulas,
    Or: _ref_check_formulas,
    Iff: _ref_check_formulas,
    Forall: _ref_check_binder,
    Exists: _ref_check_binder,
}
_REF_FACTS = {
    Var: lambda id: ((id,), 0),
    Const: lambda name: ((), 0),
    App: lambda func, args: _ref_merge(args),
    Atom: lambda pred, args: (_ref_merge(args)[0], 0),
    Forall: lambda var, body: (tuple(v for v in body._free if v != var), body._depth + 1),
}
_REF_FACTS[Exists] = _REF_FACTS[Forall]


def _reference_new(cls, *args, **kwargs):
    names = cls.__slots__
    if kwargs:
        args += tuple(kwargs.pop(name) for name in names[len(args) :] if name in kwargs)
    if kwargs or len(args) != len(names):
        raise TypeError(f"{cls.__name__}() takes the fields {names}")
    _REF_CHECKS[cls](*args)
    key = (cls, *args)
    node = syntax._TABLE.get(key)
    if node is None:
        with syntax._BUILD:
            node = syntax._TABLE.get(key)
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(names, args):
                    object.__setattr__(node, name, value)
                free, depth = _REF_FACTS.get(cls, lambda *ops: _ref_merge(ops))(*args)
                object.__setattr__(node, "_free", free)
                object.__setattr__(node, "_depth", depth)
                object.__setattr__(node, "_text", None)
                syntax._TABLE[key] = node
    return node


NODE_CLASSES = [type(c[0]) for c in NODE_CASES]
_BAD_CALLS = [
    (Var, (1.0,), {}),
    (Var, (True,), {}),
    (Var, (0,), {}),
    (Var, ([1],), {}),
    (Const, ("2",), {}),
    (Const, (["0"],), {}),
    (App, ("S", (X1, X1)), {}),
    (App, ("S", [X1]), {}),
    (App, ("S", (EQ11,)), {}),
    (App, ("-", (X1,)), {}),
    (Atom, ("<", (X1,)), {}),
    (Atom, ("=", [X1, X2]), {}),
    (Atom, (["="], (X1, X2)), {}),
    (Not, (), {}),
    (Not, ([EQ11],), {}),
    (Not, ("p",), {}),
    (Implies, (EQ11,), {}),
    (Implies, (EQ11, LT12, EQ11), {}),
    (Iff, (EQ11,), {"rigth": LT12}),
    (And, (EQ11, {}), {}),
    (Or, ("p", "q"), {}),
    (Forall, (True, EQ11), {}),
    (Forall, (1.0, EQ11), {}),
    (Exists, ("x", EQ11), {}),
    (Exists, (1, [EQ11]), {}),
    (Not, (X1,), {}),
    (Implies, (X1, Const("0")), {}),
    (Forall, (1, X1), {}),
    (Var, (1,), {"id": 1}),
    (Var, (), {"id": 1, "extra": 2}),
]


_FIELD_FORMULAS, _FIELD_TERMS = formulas(max_depth=3), terms()


@st.composite
def _constructor_calls(draw):
    """``(cls, args, kwargs)``: a call for a live node, for a node that may be
    new, or a bad one; the fields after ``args`` go by name."""
    kind = draw(st.sampled_from(("live", "new", "bad")))
    if kind == "bad":
        return draw(st.sampled_from(_BAD_CALLS))
    if kind == "live":
        node = draw(st.one_of(_FIELD_FORMULAS, _FIELD_TERMS))
        cls, values = type(node), [getattr(node, name) for name in type(node).__slots__]
    else:
        cls = draw(st.sampled_from(NODE_CLASSES))
        if cls is Var:
            values = [draw(st.integers(1, 30_000))]
        elif cls is Const:
            values = [draw(st.sampled_from(sorted(syntax.CONSTANTS)))]
        elif cls in (App, Atom):
            symbols = syntax.FUNCTIONS if cls is App else syntax.PREDICATES
            symbol = draw(st.sampled_from(sorted(symbols)))
            values = [symbol, tuple(draw(_FIELD_TERMS) for _ in range(symbols[symbol]))]
        elif cls in (Forall, Exists):
            values = [draw(st.integers(1, 5)), draw(_FIELD_FORMULAS)]
        else:
            values = [draw(_FIELD_FORMULAS) for _ in cls.__slots__]
    split = draw(st.integers(0, len(values)))
    return cls, tuple(values[:split]), dict(zip(cls.__slots__[split:], values[split:]))


@settings(max_examples=300, deadline=None)
@given(_constructor_calls(), st.booleans())
def test_constructors_agree_with_the_generic_reference(call, reference_first):
    cls, args, kwargs = call

    def outcome(build):
        try:
            return build(cls, *args, **dict(kwargs))
        except Exception as e:  # the reference's exception type is the contract
            return type(e)

    builds = [lambda cls, *a, **k: cls(*a, **k), _reference_new]
    if reference_first:
        builds.reverse()
    first, second = (outcome(build) for build in builds)
    assert first is second
    if isinstance(first, syntax._Node):
        fields_ = [getattr(first, name) for name in cls.__slots__]
        assert fields_ == [*args, *(kwargs[name] for name in cls.__slots__[len(args) :])]
        facts = _REF_FACTS.get(cls, lambda *ops: _ref_merge(ops))(*fields_)
        assert (first._free, first._depth) == facts


def test_a_table_hit_calls_no_weak_dictionary_method(monkeypatch):
    def refuse(*args):
        raise AssertionError("a table hit went through WeakValueDictionary")

    for name in ("get", "__getitem__", "__contains__"):
        monkeypatch.setattr(weakref.WeakValueDictionary, name, refuse)
    for node, _names, _text in NODE_CASES:
        cls, values = type(node), [getattr(node, name) for name in type(node).__slots__]
        assert cls(*values) is node
        assert syntax.find(cls, *values) is node


def test_a_table_hit_validates_nothing(monkeypatch):
    def refuse(key):
        raise AssertionError(f"a table hit validated {key!r}")

    monkeypatch.setattr(syntax, "_check", refuse)
    for node, _names, _text in NODE_CASES:
        assert type(node)(*(getattr(node, name) for name in type(node).__slots__)) is node


def test_a_node_that_dies_while_the_table_is_iterated_is_rebuilt_live():
    body = Atom("<", (Var(20_011), Const("1")))  # an id no other test builds
    key = (Not, body)
    neg = Not(body)
    walk = syntax._TABLE.keys()
    next(walk)  # the table is being iterated: a removal waits for the end
    try:
        del neg
        assert syntax._TABLE._pending_removals
        assert syntax._TABLE.data[key]() is None  # a dead reference, still there
        again = Not(body)
        assert isinstance(again, Not) and again.body is body
        assert syntax.find(Not, body) is again
    finally:
        walk.close()  # ends the iteration: the deferred removals run
    assert not syntax._TABLE._pending_removals
    gc.collect()
    assert syntax.find(Not, body) is again
    assert syntax._TABLE.data[key]() is again
    assert Not(body) is again


def test_throwaway_nodes_leave_the_table_as_it_was():
    body = Atom("=", (Var(20_021), Const("0")))  # an id no other test builds
    gc.collect()
    size = len(syntax._TABLE)
    for k in range(1, 5_001):
        Implies(body, Forall(k, body))  # two new nodes, dropped at once
    gc.collect()
    assert len(syntax._TABLE) == size
