"""One-pass context-free rewriting games on strings: play, decide, synthesize.

The modules are imported on their own (cfgame.analysis, cfgame.cli, ...);
importing the package loads none of them.
"""
