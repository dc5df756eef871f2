"""Reach hook: record which functions of one package this interpreter runs.

``tools/reach.py`` puts this directory first on ``PYTHONPATH``, so every
interpreter of a run -- the command itself, the fresh interpreters it
launches, and through them their forked children -- imports it at start-up.
With ``REACH_DIR`` unset it does nothing.

The hook installs a profile function (``sys.setprofile`` for this thread,
``threading.setprofile`` for threads started later) that collects the code
object of every call.  A process writes the calls into package files under
``REACH_ROOT`` to ``REACH_DIR/reach-<pid>.txt``, one ``file<TAB>first
line<TAB>name`` a line: at interpreter exit, and -- because a forked child
that leaves by ``os._exit`` runs no exit handlers -- just before
``os._exit``.
"""

import os

if os.environ.get("REACH_DIR"):
    import atexit
    import sys
    import threading

    _seen = set()
    _add = _seen.add
    _root = os.path.join(os.path.abspath(os.environ["REACH_ROOT"]), "")
    _dir = os.environ["REACH_DIR"]

    def _profile(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        lines = sorted(
            f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n"
            for code in list(_seen)
            if code.co_filename.startswith(_root)
        )
        with open(os.path.join(_dir, f"reach-{os.getpid()}.txt"), "a") as out:
            out.writelines(lines)

    def _exit(code, _real_exit=os._exit):
        _dump()
        _real_exit(code)

    os._exit = _exit
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
