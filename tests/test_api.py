"""Size of the public API, counted so that any growth shows up as a diff."""
import dataclasses
import inspect

import qvipen


def _parameters(function, bound: bool) -> int:
    """Named parameters of ``function``, without self or cls when bound."""
    variadic = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    named = [p for p in inspect.signature(function).parameters.values()
             if p.kind not in variadic]
    return len(named) - bound


def _settable(obj) -> int:
    """The settable values one public name adds to the API."""
    if not inspect.isclass(obj):
        return _parameters(obj, False) if callable(obj) else 0
    if dataclasses.is_dataclass(obj):
        count = len(dataclasses.fields(obj))
    else:
        count = _parameters(obj.__init__, True) if "__init__" in vars(obj) else 0
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(member, staticmethod):
            count += _parameters(member.__func__, False)
        elif isinstance(member, classmethod):
            count += _parameters(member.__func__, True)
        elif inspect.isfunction(member):
            count += _parameters(member, True)
    return count


def test_public_settable_value_count():
    """The public API holds 133 settable values.

    The rule: over the names in ``qvipen.__all__``, count the parameters of
    every public function and method plus the stored fields of every public
    dataclass. A class that is not a dataclass counts the parameters of its
    own ``__init__`` instead of fields. Methods are those a class defines
    itself, without a leading underscore: plain methods, classmethods and
    staticmethods. Properties, constants, ``self``/``cls`` and ``*args``/
    ``**kwargs`` count nothing. A change that adds or removes a value
    updates the number here.
    """
    counts = {name: _settable(getattr(qvipen, name)) for name in qvipen.__all__}
    assert sum(counts.values()) == 133, counts
